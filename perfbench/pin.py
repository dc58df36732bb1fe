"""Regenerate ``pinned.json``: the scenario seeds and their output digests.

Run from the root of a checkout, on the commit whose outputs are pinned::

    python3 perfbench/pin.py

Benchmark seeds map onto a fixed list of scenario seeds whose 10-day
campaigns do comparable work, so that runs of different seeds measure
the program rather than the draw:

- no usage-spike day (a spike triples a day's bundle flow, so one spike
  adds about a fifth to a 10-day run), and
- of the first ``CANDIDATES`` such seeds, the ``SEED_COUNT`` whose
  collected bundle count (which explorer downtime lowers by up to a
  fifth) is closest to the candidates' median.

Seed 2025, the paper campaign's seed, is pinned as well and runs as
itself. Every pinned seed's campaign outputs are digested, and every
benchmark run checks its outputs against them.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BENCH_DIR,
    SRC,
    WORK,
    campaign_argv,
    output_digests,
    require_source,
    spawn,
)

CAMPAIGN_DAYS = 10
SMOKE_DAYS = 3
CANDIDATES = 24
SEED_COUNT = 11


def spike_free(seed: int, days: int) -> bool:
    """True when the paper scenario draws no spike day in ``days`` days."""
    from repro.simulation import paper_scenario
    from repro.utils.rng import DeterministicRNG

    # Mirrors SimulationEngine.iter_day_blocks: one child stream per day.
    probability = paper_scenario(seed=seed, days=days).spike_probability
    root = DeterministicRNG(seed)
    return not any(
        root.child(f"day:{day}").bernoulli(probability) for day in range(days)
    )


def campaign(seed: int, days: int) -> tuple[dict[str, str], int]:
    """Output digests and bundles collected of one campaign."""
    directory = WORK / "pin" / f"days{days}-seed{seed}"
    shutil.rmtree(directory, ignore_errors=True)
    child = spawn(directory, campaign_argv(directory, seed, days))
    marks = child.wait()
    if marks.get("rc") != 0:
        raise SystemExit(f"campaign seed {seed} failed: {child.stderr_tail()}")
    summary = json.loads((directory / "out" / "summary.json").read_text())
    result = output_digests(directory / "out")
    shutil.rmtree(directory, ignore_errors=True)
    return result, summary["collection"]["bundles_collected"]


def main() -> int:
    require_source()
    sys.path.insert(0, str(SRC))
    candidates = []
    seed = 1
    while len(candidates) < CANDIDATES:
        if spike_free(seed, CAMPAIGN_DAYS):
            candidates.append(seed)
        seed += 1
    runs = {seed: campaign(seed, CAMPAIGN_DAYS) for seed in candidates + [2025]}
    middle = statistics.median(runs[seed][1] for seed in candidates)
    chosen = sorted(candidates, key=lambda s: (abs(runs[s][1] - middle), s))[:SEED_COUNT]
    chosen.sort()
    pinned = {
        "campaign": {
            "days": CAMPAIGN_DAYS,
            "seeds": chosen,
            "bundles_collected": {str(s): runs[s][1] for s in chosen + [2025]},
            "digests": {str(s): runs[s][0] for s in chosen + [2025]},
        },
        "smoke": {
            "days": SMOKE_DAYS,
            "seeds": [2025],
            "digests": {"2025": campaign(2025, SMOKE_DAYS)[0]},
        },
    }
    (BENCH_DIR / "pinned.json").write_text(json.dumps(pinned, indent=1) + "\n")
    print(f"pinned seeds {chosen} (median {middle:.0f} bundles collected) and 2025")
    return 0


if __name__ == "__main__":
    sys.exit(main())
