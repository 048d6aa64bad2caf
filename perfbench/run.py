"""qsdc-swap benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload mc-sweep --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): ``mc-sweep``, ``sessions`` and ``exact``.
Run from the root of a checkout; the program is imported from ``src/``.

Each run starts a few fresh processes that only import the program and
warm its tables, then one fresh process for the workload itself, so that
peak RSS and set-up time are that workload's alone.  Everything runs in
one thread of one process at a time: there is no concurrency, and so no
waiting time to report.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of one traced pass, including the tracing overhead.

Every output is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
record of the run (machine, inputs, check failures) goes to
``.perfbench_out/``.

The end-to-end times (setup_s, wall_s, the latencies, and work_per_s
through wall_s) are scaled to a fixed machine speed: a reference kernel
runs from a timer signal while the program sets up and works, and each
time is divided by how much slower than its nominal time the kernel ran
over the same stretch (see refspeed.py).  The host this was written on
drifts by a third in speed over tens of seconds, which raw times would
carry straight into every comparison.  Raw times and the speed factors
are kept in the record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc-sweep", "sessions", "exact")
SETUP_SAMPLES = 15  # fresh processes timed to ready; the median is setup_s
TIME_LIMIT_S = 170.0

END_TO_END = (  # name, unit
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
)
# What work_per_s and the op latencies are called on each workload.
ALIASES = {
    "mc-sweep": {"work_per_s": "mc_trials_per_s", "op_p50_ms": "pass_p50_ms", "op_p99_ms": "pass_p99_ms"},
    "sessions": {
        "work_per_s": "session_groups_per_s",
        "op_p50_ms": "session_p50_ms",
        "op_p99_ms": "session_p99_ms",
    },
    "exact": {"work_per_s": "leaves_per_s", "op_p50_ms": "pass_p50_ms", "op_p99_ms": "pass_p99_ms"},
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    # One thread per process, and stable set iteration between runs.
    env.update(
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def start_child(extra: list[str], deadline: float) -> tuple[subprocess.Popen, dict]:
    """Start a fresh process and return it with its time to ``ready``, raw
    and scaled by the speed probe the child ran while it set up."""
    cmd = [sys.executable, str(HERE / "child.py")] + extra
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    waiting = select.select([proc.stdout], [], [], max(0.0, deadline - start))[0]
    line = proc.stdout.readline() if waiting else ""
    ready = time.perf_counter() - start
    word, _, probe = line.partition(" ")
    if word != "ready":
        proc.kill()
        proc.wait()
        raise BenchError("the program did not import and set up")
    probe = json.loads(probe)
    scaled = (ready - probe["probe_s"]) / probe["speed"]
    return proc, {"ready_s": ready, **probe, "scaled_s": scaled}


def finish_child(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("the workload process ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"the workload process exited with {proc.returncode}")
    return out


def git_revision() -> str:
    """HEAD of the checkout; git does not look above it for a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine(args, numpy_version: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_revision": git_revision(),
        "loadavg": os.getloadavg(),
        "seed": args.seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="qsdc-swap benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "qsdc_swap" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'qsdc_swap'} is missing", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + TIME_LIMIT_S
    try:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup = start_child(["--setup-only"], deadline)
            finish_child(proc, deadline)
            setups.append(setup)
        proc, setup = start_child(
            [
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            deadline,
        )
        setups.append(setup)
        result = json.loads(finish_child(proc, deadline).strip().splitlines()[-1])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        units = result["units"]
    else:
        units = dict(END_TO_END)
        result["metrics"]["setup_s"] = statistics.median(s["scaled_s"] for s in setups)
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}

    attempted, failed = result["attempted"], result["failed"]
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine(args, result["numpy"]),
        "inputs": result["inputs"],
        "work_unit": result["unit"],
        "passes": result["passes"],
        "setup_samples": setups,
        "error_rate": failed / attempted,
        "waiting": "not applicable: one client in a closed loop, nothing runs concurrently",
        "check_failures": result["reasons"],
        **{
            k: result[k]
            for k in ("pass_walls_s", "speed_factors", "latency_samples", "untraced_wall_s", "traced_wall_s")
            if k in result
        },
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record_path = out_dir / f"record-{args.workload}-trace{args.trace}.json"
    record_path.write_text(json.dumps({**record, "metrics": metrics}, indent=1) + "\n")

    for reason in result["reasons"]:
        print(f"check failed: {reason}", file=sys.stderr)
    print(f"record: {json.dumps(record)}")
    aliases = {} if args.trace else ALIASES[args.workload]
    print(f"{args.workload}: error_rate = {failed / attempted:.6g} ({failed}/{attempted} operations)")
    for name, entry in metrics.items():
        label = f"{name} ({aliases[name]})" if name in aliases else name
        print(f"{args.workload}: {label} = {entry['value']:.6g} {entry['unit']}")
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
