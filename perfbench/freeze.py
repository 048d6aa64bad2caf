"""Write frozen.json: every exact figure the benchmark gate compares
against, computed by the program as it stands.

Re-freezing replaces the reference the gate checks, so run it only when a
change deliberately alters an exact figure:

    python3 perfbench/freeze.py

Leaf statistics must not depend on the message bits, because the exact
workload draws them from its seed; this script checks that over every bit
pattern before it writes anything.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from qsdc_swap import analysis  # noqa: E402

import workloads as wl  # noqa: E402


def main() -> int:
    frozen = {"detection": {}, "leakage": {}, "fidelity": {}, "leaves": {}}
    for strategy in wl.STRATEGIES:
        for predicate in wl.PREDICATES:
            for target in wl.TARGETS:
                for name, policy in wl.POLICIES:
                    key = wl.detection_key(strategy, predicate, target, name)
                    frozen["detection"][key] = {
                        "tree": analysis.exact_detection(strategy, predicate, policy, target),
                        "algebra": analysis.detection_from_swap_algebra(
                            strategy, predicate, policy, target
                        ),
                    }
        for target in wl.TARGETS:
            key = wl.route_key(strategy, target)
            frozen["leakage"][key] = analysis.exact_leakage(strategy, target)
            frozen["fidelity"][key] = analysis.honest_fidelity(strategy, target)
        for checking in wl.LEAF_CHECKING_SETS:
            n_bits = 2 * (wl.LEAF_GROUPS - len(checking))
            summaries = []
            for bits in itertools.product("01", repeat=n_bits):
                bits = "".join(bits)
                leaves = analysis.enumerate_session_leaves(
                    wl.LEAF_GROUPS, list(checking), strategy, message_bits=bits
                )
                summaries.append(wl.leaf_summary(leaves, bits))
            first = summaries[0]
            for other in summaries[1:]:
                if other["count"] != first["count"] or any(
                    abs(other[k] - first[k]) > wl.EXACT_TOL for k in ("p_detected", "p_decoded")
                ):
                    print(f"leaf statistics of {strategy.value} {checking} depend on the bits")
                    return 1
            frozen["leaves"][wl.leaves_key(strategy, checking)] = {
                "count": first["count"],
                "p_detected": first["p_detected"],
                "p_decoded": first["p_decoded"],
            }
    wl.FROZEN_PATH.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.FROZEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
