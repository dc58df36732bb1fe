"""Per-pack differential oracle: every engine agrees on every pack.

The acceptance criterion: all three packs must produce byte-identical
reports across the serial, parallel, and stream engines — the
same oracle matrix the conformance tier runs for plain scenarios, applied
to each pack's observed (public-feed) rows.
"""

import pytest

from repro.conformance.oracle import default_configs, run_rows_differential
from repro.scenarios.generate import build_pack_campaign
from repro.scenarios.packs import CORPUS_PACKS

REQUIRED_ENGINES = ("serial", "parallel", "stream")


@pytest.mark.parametrize("pack", CORPUS_PACKS, ids=lambda p: p.name)
def test_pack_observed_rows_pass_the_full_matrix(pack, tmp_path):
    campaign = build_pack_campaign(pack)
    result = run_rows_differential(
        campaign.observed_rows,
        tmp_path / pack.name,
        configs=default_configs(jobs=2),
    )
    names = set(result.reports)
    for engine in REQUIRED_ENGINES:
        assert any(name.startswith(engine) for name in names), (
            f"oracle matrix lost the {engine} engine: {sorted(names)}"
        )
    assert result.identical, result.render()


@pytest.mark.parametrize("pack", CORPUS_PACKS, ids=lambda p: p.name)
def test_pack_truth_rows_pass_the_matrix_too(pack, tmp_path):
    # Ground-truth rows include evasion shapes (4-tx bundles, splits);
    # the engines must agree on those populations as well.
    campaign = build_pack_campaign(pack)
    result = run_rows_differential(
        campaign.truth_rows,
        tmp_path / pack.name,
        configs=default_configs(jobs=2),
    )
    assert result.identical, result.render()
