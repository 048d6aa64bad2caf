"""Import layering of the package, read from its source with ``ast``: no
function imports anything, and the imports the modules run when they load
form no cycle among them.  Imports under ``if TYPE_CHECKING:`` do not run
and do not count."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qsdc_swap"
TREES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
    for path in sorted(PACKAGE.glob("*.py"))
}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
IMPORTS = (ast.Import, ast.ImportFrom)


def _type_checking_only(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Name)
        and node.test.id == "TYPE_CHECKING"
    )


def _load_time_imports(tree: ast.Module):
    """The import statements a module runs as it loads: those outside
    function bodies and outside the body of ``if TYPE_CHECKING:``."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, IMPORTS):
            yield node
        elif _type_checking_only(node):
            stack.extend(node.orelse)
        elif not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _package_modules(node: ast.Import | ast.ImportFrom) -> set[str]:
    """The modules of the package that an import statement names."""
    if isinstance(node, ast.Import):
        dotted = [alias.name for alias in node.names]
    else:
        # The package is flat: a relative import names it, then the module.
        base = node.module
        if node.level:
            base = ".".join(filter(None, [PACKAGE.name, node.module]))
        dotted = [f"{base}.{alias.name}" for alias in node.names]
    parts = [name.split(".") for name in dotted]
    return {p[1] for p in parts if p[0] == PACKAGE.name and len(p) > 1 and p[1] in TREES}


def _import_graph() -> dict[str, set[str]]:
    return {
        name: set().union(*map(_package_modules, _load_time_imports(tree)))
        for name, tree in TREES.items()
    }


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One ring of modules that import each other, or None."""
    done: set[str] = set()
    path: list[str] = []

    def visit(module: str) -> list[str] | None:
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return None
        path.append(module)
        for target in sorted(graph[module]):
            ring = visit(target)
            if ring:
                return ring
        path.pop()
        done.add(module)
        return None

    return next(filter(None, map(visit, sorted(graph))), None)


def test_no_function_imports():
    found = sorted({
        f"{name}.py:{node.lineno}"
        for name, tree in TREES.items()
        for function in ast.walk(tree)
        if isinstance(function, FUNCTIONS)
        for node in ast.walk(function)
        if isinstance(node, IMPORTS)
    })
    assert found == []


def test_load_time_imports_form_no_cycle():
    graph = _import_graph()
    # The session driver calls the attack; the attack does not call back.
    assert "adversary" in graph["protocol"]
    assert "protocol" not in graph["adversary"]
    ring = _cycle(graph)
    assert ring is None, " -> ".join(ring)
