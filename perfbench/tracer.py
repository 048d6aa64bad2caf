"""Per-layer tracing installed from outside the program.

The tracer wraps the public functions of ``qcore``, ``bellmap``,
``protocol``, ``adversary``, ``analysis`` and ``cli`` at runtime; nothing
in ``src/`` changes.  Several modules import functions by name
(``protocol.decode_op``, ``analysis.draw_op`` ...), so each wrapper is
installed at every module global bound to the original function, and
``Register`` / ``SessionTranscript`` methods are patched on the class.

Every wrapped call is one span (name, start, end, parent) appended to
flat in-memory arrays; nothing is written until the run ends.  A span's
self time is its duration minus the durations of its direct children.
Only one client runs and nothing runs concurrently, so no span waits on
another and waiting time does not apply.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from collections import defaultdict

import numpy as np

from qsdc_swap import adversary, analysis, bellmap, cli, protocol, qcore
from qsdc_swap.adversary import AttackStrategy
from qsdc_swap.protocol import Register, SessionTranscript, Verdict

MODULES = (qcore, bellmap, protocol, adversary, analysis, cli)

QCORE_FNS = ("compose", "apply_single", "apply_cnot", "sample_bell", "bell_branches", "make_rng")
BELLMAP_FNS = ("decode_op", "is_correlated")
REGISTER_METHODS = ("measure_bell", "enumerate_bell", "clone", "apply_single", "apply_cnot")
PROTOCOL_FNS = (
    "run_checking",
    "run_encoding",
    "partition_groups",
    "draw_op",
    "decode_message",
    "run_session",
)
TREE_FNS = ("exact_detection", "exact_leakage", "honest_fidelity")
BELLMAP_CACHES = ("swap_decompose", "apply_encoding", "correlation_table", "_decode_map")
STRATEGY_NAMES = tuple(s.value for s in AttackStrategy)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for fn in QCORE_FNS:
        out += [(f"qcore.{fn}.calls", "count"), (f"qcore.{fn}.self_us", "us")]
    out += [
        ("qcore.max_width", "qubits"),
        ("qcore.amp_bytes", "B"),
        ("qcore.make_bell.hit_ratio", "ratio"),
    ]
    for fn in BELLMAP_FNS:
        out += [(f"bellmap.{fn}.calls", "count"), (f"bellmap.{fn}.self_us", "us")]
    out += [("bellmap.cache.hit_ratio", "ratio"), ("bellmap.tables_s", "s")]
    for m in REGISTER_METHODS:
        out += [(f"protocol.Register.{m}.calls", "count"), (f"protocol.Register.{m}.self_us", "us")]
    out.append(("protocol.Register.enumerate_bell.branches", "count"))
    out += [(f"protocol.{fn}.self_us", "us") for fn in PROTOCOL_FNS]
    out += [
        ("protocol.check_passes.calls", "count"),
        ("protocol.check_passes.self_us", "us"),
        ("protocol.transcript_json.self_us", "us"),
        ("protocol.abort_share", "ratio"),
    ]
    out += [(f"adversary.apply_attack.{s}.self_us", "us") for s in STRATEGY_NAMES]
    out.append(("adversary.finalize_attack.self_us", "us"))
    for s in STRATEGY_NAMES:
        out += [
            (f"analysis.monte_carlo.{s}.trials_per_s", "1/s"),
            (f"analysis.monte_carlo.{s}.self_us_per_trial", "us"),
        ]
    for s in STRATEGY_NAMES:
        out += [(f"analysis.tree.{s}.ms", "ms"), (f"analysis.tree.{s}.branches", "count")]
    out += [(f"analysis.algebra.{s}.ms", "ms") for s in STRATEGY_NAMES]
    for s in STRATEGY_NAMES:
        out += [(f"analysis.leaves.{s}.count", "count"), (f"analysis.leaves.{s}.ms", "ms")]
    out += [
        ("analysis.identities.ms", "ms"),
        ("cli.emit_report.ms", "ms"),
        ("cli.emit_report.bytes", "B"),
        ("cli.main.self_ms", "ms"),
        ("trace.spans", "count"),
        ("trace.overhead_s", "s"),
    ]
    return out


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _cache_totals(fns) -> tuple[int, int]:
    hits = misses = 0
    for fn in fns:
        info = fn.cache_info()
        hits, misses = hits + info.hits, misses + info.misses
    return hits, misses


class Tracer:
    """Spans in flat arrays plus counters taken at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self._tree_strategy: str | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.end)
        self.name_idx.append(ident)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, fn, name, after=None):
        """``name`` is a span name or a function of (args, kwargs)."""
        call = self.call
        fixed = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = call(fixed or name(args, kwargs), fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def _patch_function(self, module, attr: str, name, after=None, wrapper=None) -> None:
        """Install at every module global bound to ``module.attr``."""
        original = getattr(module, attr)
        wrapper = wrapper or self._wrapper(original, name, after)
        for mod in MODULES:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, name, after=None) -> None:
        raw = cls.__dict__[attr]
        self._restore.append((cls, attr, raw))
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(self._wrapper(raw.__func__, name, after)))
        else:
            setattr(cls, attr, self._wrapper(raw, name, after))

    def install(self) -> None:
        counts = self.counts

        def width_of(*states):
            n = max(s.n for s in states)
            if n > counts["qcore.max_width"]:
                counts["qcore.max_width"] = n
            counts["qcore.amp_bytes"] += sum(s.amps.nbytes for s in states)

        def qcore_after(fn):
            if fn == "make_rng":
                return None
            if fn == "compose":
                return lambda a, k, r: width_of(a[0], a[1], r)
            return lambda a, k, r: width_of(a[0])

        for fn in QCORE_FNS:
            self._patch_function(qcore, fn, f"qcore.{fn}", qcore_after(fn))
        for fn in BELLMAP_FNS:
            self._patch_function(bellmap, fn, f"bellmap.{fn}")

        def branches_after(a, k, result):
            counts["protocol.Register.enumerate_bell.branches"] += len(result)
            if self._tree_strategy is not None:
                counts[f"analysis.tree.{self._tree_strategy}.branches"] += len(result)

        for m in REGISTER_METHODS:
            after = branches_after if m == "enumerate_bell" else None
            self._patch_method(Register, m, f"protocol.Register.{m}", after)

        def session_after(a, k, result):
            transcript = result[0] if isinstance(result, tuple) else result
            counts["protocol.sessions"] += 1
            counts["protocol.aborted"] += transcript.verdict is not Verdict.CLEAN

        for fn in PROTOCOL_FNS:
            after = session_after if fn == "run_session" else None
            self._patch_function(protocol, fn, f"protocol.{fn}", after)
        self._patch_function(protocol, "check_passes", "protocol.check_passes")
        self._patch_method(SessionTranscript, "to_json_dict", "protocol.transcript_json")
        self._patch_method(SessionTranscript, "from_json_dict", "protocol.transcript_json")

        def by_strategy(prefix, pos):
            return lambda a, k: f"{prefix}.{_arg(a, k, pos, 'strategy', AttackStrategy.NONE).value}"

        self._patch_function(adversary, "apply_attack", by_strategy("adversary.apply_attack", 0))
        self._patch_function(adversary, "finalize_attack", "adversary.finalize_attack")

        def mc_after(a, k, result):
            counts[f"analysis.monte_carlo.{result.strategy.value}.trials"] += result.trials

        self._patch_function(
            analysis, "monte_carlo", by_strategy("analysis.monte_carlo", 0), mc_after
        )
        for fn in TREE_FNS:
            self._patch_tree(fn)
        self._patch_function(
            analysis, "detection_from_swap_algebra", by_strategy("analysis.algebra", 0)
        )

        def leaves_after(a, k, result):
            strategy = _arg(a, k, 2, "strategy", AttackStrategy.NONE)
            counts[f"analysis.leaves.{strategy.value}.count"] += len(result)

        self._patch_function(
            analysis,
            "enumerate_session_leaves",
            by_strategy("analysis.leaves", 2),
            leaves_after,
        )
        self._patch_function(analysis, "run_identities", "analysis.identities")

        def report_after(a, k, result):
            counts["cli.emit_report.bytes"] += os.path.getsize(_arg(a, k, 2, "path"))

        self._patch_function(cli, "emit_report", "cli.emit_report", report_after)
        self._patch_function(cli, "main", "cli.main")

    def _patch_tree(self, fn: str) -> None:
        """Tree-route spans also attribute enumerated branches to their
        strategy."""
        original = getattr(analysis, fn)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            strategy = _arg(args, kwargs, 0, "strategy").value
            outer, self._tree_strategy = self._tree_strategy, strategy
            try:
                return self.call(f"analysis.tree.{strategy}", original, args, kwargs)
            finally:
                self._tree_strategy = outer

        self._patch_function(analysis, fn, None, wrapper=wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per span: name index, duration and self time, in seconds."""
        names = np.frombuffer(self.name_idx, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        children = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(children, parent[nested], dur[nested])
        return names, dur, dur - children

    def write(self, path) -> None:
        """Dump every span; parent -1 marks a root."""
        np.savez(
            path,
            names=np.array(self.names),
            name_idx=np.frombuffer(self.name_idx, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class CacheProbe:
    """Hit ratios of the program's lru caches over an interval."""

    def __init__(self):
        self._bellmap = [getattr(bellmap, name) for name in BELLMAP_CACHES]
        self._start = (_cache_totals(self._bellmap), _cache_totals([qcore.make_bell]))

    def ratios(self) -> dict[str, float]:
        out = {}
        for key, fns, (h0, m0) in (
            ("bellmap.cache.hit_ratio", self._bellmap, self._start[0]),
            ("qcore.make_bell.hit_ratio", [qcore.make_bell], self._start[1]),
        ):
            h, m = _cache_totals(fns)
            lookups = (h - h0) + (m - m0)
            out[key] = (h - h0) / lookups if lookups else 0.0
        return out


def layer_metrics(tracer: Tracer, caches: CacheProbe, tables_s: float) -> dict:
    """Aggregate spans and counters into the per-layer metrics; the caller
    fills in ``trace.overhead_s``."""
    names, dur, self_t = tracer.self_times()
    k = len(tracer.names)
    calls = np.bincount(names, minlength=k)
    self_sum = np.bincount(names, weights=self_t, minlength=k)
    total = np.bincount(names, weights=dur, minlength=k)
    by_name = {n: (int(calls[i]), float(self_sum[i]), float(total[i])) for i, n in enumerate(tracer.names)}

    def span(name):
        return by_name.get(name, (0, 0.0, 0.0))

    counts = tracer.counts
    values: dict[str, float] = {}
    for name, _unit in per_layer_metrics():
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = span(layer)[0]
        elif stat == "self_us":
            values[name] = span(layer)[1] * 1e6
        elif stat == "ms" and layer.startswith(("analysis.", "cli.")):
            values[name] = span(layer)[2] * 1e3
        elif stat in ("trials_per_s", "self_us_per_trial"):
            trials = counts[f"{layer}.trials"]
            _n, own, whole = span(layer)
            if stat == "trials_per_s":
                values[name] = trials / whole if whole else 0.0
            else:
                values[name] = own * 1e6 / trials if trials else 0.0
        elif name == "cli.main.self_ms":
            values[name] = span("cli.main")[1] * 1e3
        elif name == "protocol.abort_share":
            sessions = counts["protocol.sessions"]
            values[name] = counts["protocol.aborted"] / sessions if sessions else 0.0
        elif name == "trace.spans":
            values[name] = len(tracer.end)
        elif name == "bellmap.tables_s":
            values[name] = tables_s
        else:
            values[name] = counts[name]
    values.update(caches.ratios())
    return values
