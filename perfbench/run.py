"""Benchmark of the paper pipeline: ``campaign``, ``analyze`` and ``api``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign --seed 2025 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke        # tiny configuration, every workload

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
the program untraced; ``--trace 1`` is a separate run that wraps the layer
boundaries of :mod:`layers` and reports the per-layer metrics. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Set-up errors and boundaries that vanished or
recorded no call exit non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, WORK, BenchError, Fixtures, load_json, pinned, require_source  # noqa: E402
from workloads import TRACED, UNTRACED, Context, Result  # noqa: E402

#: Requests per API measurement; the smoke run sends fewer.
REQUESTS = 1000
SMOKE_REQUESTS = 200


#: Heavy load runs this many operations at once at most, so that
#: concurrent campaigns (about 175 MB each) stay small on a large host.
MAX_HEAVY = 4


def nproc() -> int:
    """The CPUs this process may use, up to ``MAX_HEAVY``."""
    return min(len(os.sched_getaffinity(0)), MAX_HEAVY)


def context(workload: str, seed: int, seconds: float, days: int, seeds: list[int],
            digests: dict, requests: int) -> Context:
    # --seed picks the scenario seed: a pinned seed runs as itself, any
    # other maps onto the list of comparable seeds (see pin.py).
    scenario_seed = seed if str(seed) in digests else seeds[seed % len(seeds)]
    run_dir = WORK / "runs" / workload
    shutil.rmtree(run_dir, ignore_errors=True)
    return Context(
        seed=seed,
        scenario_seed=scenario_seed,
        seconds=seconds,
        days=days,
        nproc=nproc(),
        run_dir=run_dir,
        fixtures=Fixtures(days),
        pinned_digests=digests[str(scenario_seed)],
        requests=requests,
    )


def declared(spec: dict, trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in group}


def result_line(result: Result, units: dict[str, str], trace: bool) -> dict:
    unknown = sorted(set(result.metrics) - set(units))
    if unknown:
        raise BenchError(f"undeclared metrics: {', '.join(unknown)}")
    missing = sorted(set(units) - set(result.metrics))
    if missing and result.correct and not trace:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    # Per-layer metrics of layers a workload never reaches read 0.
    return {
        "correct": result.correct and result.failed == 0,
        "attempted": max(result.attempted, 1),
        "failed": result.failed,
        "metrics": {
            name: {"value": float(result.metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    spec = load_json(ROOT / "BENCHMARK.json")
    pin = pinned()
    config = pin["smoke"] if smoke else pin["campaign"]
    ctx = context(
        workload, seed, seconds, config["days"], config["seeds"], config["digests"],
        SMOKE_REQUESTS if smoke else REQUESTS,
    )
    table = TRACED if trace else UNTRACED
    result = table[workload](ctx)
    shutil.rmtree(ctx.run_dir, ignore_errors=True)
    for line in result.notes:
        print(line)
    return result_line(result, declared(spec, trace), trace)


def smoke(seed: int) -> int:
    """Every workload, untraced then traced, at the smoke size."""
    status = 0
    for workload in UNTRACED:
        for trace in (False, True):
            print(f"== {workload} (trace {int(trace)})")
            line = run(workload, seed, 1.0, trace, smoke=True)
            for name, metric in line["metrics"].items():
                print(f"  {name:32} {metric['value']:14.6f} {metric['unit']}")
            print(
                f"  correct {line['correct']}, attempted {line['attempted']}, "
                f"failed {line['failed']}"
            )
            status |= 0 if line["correct"] else 1
    print(json.dumps({"smoke": "ok" if status == 0 else "failed"}))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(UNTRACED))
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        require_source()
        if args.smoke:
            return smoke(args.seed)
        line = run(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
