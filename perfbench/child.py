"""One benchmark process: import the program, warm its tables, say
``ready``, then run one workload and print its results as one JSON line.

run.py starts this script; each workload runs in its own fresh process,
so peak RSS and set-up time belong to that workload alone.

    python3 perfbench/child.py --setup-only
    python3 perfbench/child.py --workload sessions --seed 1 --seconds 25 --trace 0

A speed probe (refspeed.py) runs while the program is imported and its
tables warmed; the ``ready`` line carries its speed factor and the time it
took, so that run.py can scale the time to ``ready``.

With ``--trace 0`` it runs passes of the workload's fixed work until
``--seconds`` have passed (at least two), untraced, each under a speed
probe whose factor scales that pass's times; ``wall_s`` is the sum, over
the operations of a pass, of each one's median scaled time across passes.
With ``--trace 1`` it runs, unscaled, a discarded warm-up pass, then
untraced and traced passes in turn, starting and ending untraced, for
``--seconds`` (at least one traced pass).
The per-layer metrics come from the first traced pass, whose spans are
written to ``.perfbench_out/`` at the end; the tracing overhead is the
median, over traced passes, of the traced pass time minus the mean of the
two untraced passes around it.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_TICK_S = 0.005  # set-up takes about 0.2 s
PASS_TICK_S = 0.01


def warm_tables() -> None:
    """Fill the bellmap caches the program derives on first use."""
    from qsdc_swap import bellmap
    from qsdc_swap.qcore import BELL_KINDS

    bellmap.correlation_table()
    for first in BELL_KINDS:
        for second in BELL_KINDS:
            bellmap.swap_decompose(first, second)
            bellmap.decode_op(first, second)
        for op in bellmap.ENCODING_OPS:
            bellmap.apply_encoding(op, first)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def run_untraced(workload, gate, seconds: float) -> dict:
    import refspeed

    probe = refspeed.SpeedProbe(refspeed.numeric, refspeed.NUMERIC_S, PASS_TICK_S)
    passes, factors = [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < 2 or (
        time.perf_counter() + statistics.median(p.wall for p in passes) <= deadline
    ):
        probe.start()
        passes.append(workload.run_pass(gate))
        factors.append(probe.stop())
    walls = [p.wall for p in passes]
    # Each pass's times at the reference speed.  Every pass runs the same
    # operations in the same order, so each operation's time is then its
    # median over the passes.
    op_times = [
        statistics.median(times)
        for times in zip(*([d / k for d in p.durations] for p, k in zip(passes, factors)))
    ]
    wall = sum(op_times)
    if workload.latency_per_op:
        latencies = op_times
    else:
        latencies = [w / k for w, k in zip(walls, factors)]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "metrics": {
            "wall_s": wall,
            "peak_rss_mb": peak_kb / 1024.0,
            "work_per_s": passes[0].work / wall,
            "op_p50_ms": percentile(latencies, 50) * 1e3,
            "op_p99_ms": percentile(latencies, 99) * 1e3,
        },
        "passes": len(passes),
        "pass_walls_s": walls,
        "speed_factors": factors,
        "latency_samples": len(latencies),
        "work_per_pass": passes[0].work,
    }


def traced_pass(tracer, workload, gate):
    tracer.install()
    try:
        return tracer.call("bench.pass", workload.run_pass, (gate,), {})
    finally:
        tracer.uninstall()


def run_traced(workload, gate, name: str, seconds: float, tables_s: float, out_dir: Path) -> dict:
    """Per-layer metrics from the first traced pass; tracing overhead from
    traced passes alternating with untraced ones for ``seconds``."""
    import tracer as tr

    deadline = time.perf_counter() + seconds
    workload.run_pass(gate)  # warm-up, so no timed pass pays first-call costs
    untraced = [workload.run_pass(gate).wall]
    tracer = tr.Tracer()
    caches = tr.CacheProbe()
    traced = [traced_pass(tracer, workload, gate).wall]
    metrics = tr.layer_metrics(tracer, caches, tables_s)
    untraced.append(workload.run_pass(gate).wall)
    # Later traced passes only time the wrapping; their spans are dropped.
    while time.perf_counter() + traced[-1] + untraced[-1] <= deadline:
        traced.append(traced_pass(tr.Tracer(), workload, gate).wall)
        untraced.append(workload.run_pass(gate).wall)
    # Each traced pass against the mean of the untraced passes around it,
    # so a steady drift in the machine's speed cancels.
    overheads = [t - (untraced[i] + untraced[i + 1]) / 2 for i, t in enumerate(traced)]
    overhead = statistics.median(overheads)
    metrics["trace.overhead_s"] = overhead
    # Wrapping only adds work: a traced pass no slower than the untraced
    # ones around it means the machine's speed moved, not a measurement.
    gate.record(
        [] if overhead > 0 else [f"tracing overhead {overhead:+.3f} s is not positive"],
        "tracing overhead",
    )
    if name == "exact":
        calls = metrics["qcore.make_rng.calls"]
        gate.record([f"make_rng called {calls} times"] if calls else [], "exact never samples")
    tracer.write(out_dir / f"spans-{name}.npz")
    return {
        "metrics": metrics,
        "units": dict(tr.per_layer_metrics()),
        "passes": 1 + len(untraced) + len(traced),
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(HERE))
    import refspeed

    # Imports and tables are mostly bytecode, and numpy is not loaded yet.
    setup_probe = refspeed.SpeedProbe(refspeed.interpreted, refspeed.INTERPRETED_S, SETUP_TICK_S)
    setup_probe.start()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import qsdc_swap

    if not Path(qsdc_swap.__file__).resolve().is_relative_to(ROOT / "src"):
        setup_probe.stop()
        print(f"imported qsdc_swap from {qsdc_swap.__file__}, not {ROOT}", file=sys.stderr)
        return 2
    start = refspeed.clock()
    warm_tables()
    tables_s = refspeed.clock() - start
    speed = setup_probe.stop()
    print("ready", json.dumps({"speed": speed, "probe_s": setup_probe.total}), flush=True)
    if args.setup_only:
        return 0

    import workloads as wl

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workload = wl.make_workload(args.workload, args.seed, out_dir)
    gate = wl.Gate()
    if args.trace:
        result = run_traced(workload, gate, args.workload, args.seconds, tables_s, out_dir)
    else:
        result = run_untraced(workload, gate, args.seconds)
    result.update(
        attempted=gate.attempted,
        failed=gate.failed,
        reasons=gate.reasons,
        inputs=workload.inputs(),
        unit=workload.unit,
        tables_s=tables_s,
        numpy=numpy.__version__,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
