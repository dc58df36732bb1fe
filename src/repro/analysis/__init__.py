"""Figure/table builders and paper-scale extrapolation.

One module per artifact in the paper's evaluation:

- :mod:`repro.analysis.table1` — the worked example sandwich
- :mod:`repro.analysis.figure1` — bundles/day by bundle length
- :mod:`repro.analysis.figure2` — attacks & defensive bundles/day; losses/gains
- :mod:`repro.analysis.figure3` — CDF of per-victim USD losses
- :mod:`repro.analysis.figure4` — tip CDFs for bundle classes
- :mod:`repro.analysis.headline` — the Section 4 headline numbers
- :mod:`repro.analysis.extrapolate` — simulation-to-paper scale conversion

Extension studies beyond the paper's artifacts:

- :mod:`repro.analysis.defenses` — slippage/splitting vs the optimal attacker
- :mod:`repro.analysis.latency` — tips vs landing latency
- :mod:`repro.analysis.sensitivity` — multi-seed stability
- :mod:`repro.analysis.actors` / :mod:`repro.analysis.validators` — who
  attacks, who gets hit, and who earns the tips
- :mod:`repro.analysis.cost_benefit` — the Section 5 insurance arithmetic
- :mod:`repro.analysis.export` — figure series as CSV
"""

import importlib

#: Public name -> the submodule defining it, imported on first use.
_EXPORTS = {
    "ActorStudy": "actors",
    "CostBenefit": "cost_benefit",
    "Figure1": "figure1",
    "Figure2": "figure2",
    "Figure3": "figure3",
    "Figure4": "figure4",
    "HeadlineComparison": "headline",
    "LatencyStudy": "latency",
    "ScaleFactors": "extrapolate",
    "SensitivityReport": "sensitivity",
    "Table1": "table1",
    "ValidatorStudy": "validators",
    "build_figure1": "figure1",
    "build_figure2": "figure2",
    "build_figure3": "figure3",
    "build_figure4": "figure4",
    "build_headline_comparison": "headline",
    "build_table1": "table1",
    "compute_cost_benefit": "cost_benefit",
    "extrapolated_headline": "extrapolate",
    "latency_by_tip": "latency",
    "multi_seed_study": "sensitivity",
    "profile_actors": "actors",
    "profile_validators": "validators",
    "slippage_sweep": "defenses",
    "split_sweep": "defenses",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Import the submodule that defines ``name`` on first access (PEP 562)."""
    try:
        submodule = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value
