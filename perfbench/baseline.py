"""Measure a baseline: untraced runs on several seeds plus one traced run.

Run from the root of a checkout::

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

For each workload it runs ``run.py`` once per seed (1..runs) untraced and
once traced (seed 2025), then records per metric the median, the
quartiles and the spread (interquartile distance over the median, the
figure the bounds in ``BENCHMARK.json`` are checked against), and the
traced per-layer values.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: {completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def describe(values: list[float]) -> dict:
    middle = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": middle,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / middle if middle else None,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="campaign,analyze,api")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    report = {
        "host": {
            "machine": platform.machine(),
            "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
        },
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        started = time.monotonic()
        lines = [run_once(workload, seed, seconds, 0) for seed in range(1, args.runs + 1)]
        traced = run_once(workload, 2025, seconds, 1)
        metrics = {
            name: describe([line["metrics"][name]["value"] for line in lines])
            for name in lines[0]["metrics"]
        }
        report["workloads"][workload] = {
            "seeds": list(range(1, args.runs + 1)),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "all_correct": all(line["correct"] for line in lines),
            "end_to_end": metrics,
            "traced_seed_2025": {
                name: metric["value"] for name, metric in traced["metrics"].items()
            },
            "seconds": time.monotonic() - started,
        }
        for name, entry in metrics.items():
            print(f"{workload:9} {name:26} median {entry['median']:12.4f} "
                  f"spread {entry['spread']:.3f}", flush=True)
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
