"""Run the benchmark over several seeds and report, per end-to-end metric,
the median, the quartiles and their distance as a share of the median.

    python3 perfbench/spread.py --runs 10 --workloads mc-sweep,sessions,exact
    python3 perfbench/spread.py --runs 10 --traced --out perfbench/trajectory/01-baseline.json

Seeds are 1 .. ``--runs``.  With ``--traced`` each workload also gets one
traced run (seed 1), whose per-layer metrics go into the ``--out`` record
beside the end-to-end summary.  A metric whose spread reaches a third of
its bound in BENCHMARK.json is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=200)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="mc-sweep,sessions,exact")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    report = {"run_seconds": seconds, "runs": args.runs, "workloads": {}}
    for workload in args.workloads.split(","):
        samples: dict[str, list[float]] = {}
        for seed in range(1, args.runs + 1):
            result = bench(workload, seed, seconds, 0)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: {values}", file=sys.stderr, flush=True)
            for name, entry in result["metrics"].items():
                samples.setdefault(name, []).append(entry["value"])
        summary = {name: summarize(values) for name, values in samples.items()}
        entry = {"end_to_end": summary}
        for name, s in summary.items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- over bound/3"
            print(
                f"{workload:9} {name:12} median {s['median']:12.6g}  "
                f"spread {s['spread']:.4f}  bound {bounds[name]}{flag}"
            )
        if args.traced:
            traced = bench(workload, 1, seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record = json.loads((ROOT / ".perfbench_out" / f"record-{workload}-trace0.json").read_text())
        entry["inputs"] = record["inputs"]
        report["machine"] = record["machine"]
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
