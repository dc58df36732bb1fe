"""Conformance testing for the detection pipeline.

Machine-checked equivalence across every way the pipeline can execute:

- :mod:`repro.conformance.scenarios` — deterministic synthetic campaigns;
- :mod:`repro.conformance.golden` — frozen golden-master fixtures with an
  explicit bless workflow;
- :mod:`repro.conformance.oracle` — the differential oracle that runs any
  two pipeline configurations and structurally diffs their results;
- :mod:`repro.conformance.metamorphic` — invariants relating transformed
  campaigns to their originals;
- :mod:`repro.conformance.canon` — canonical float/JSON forms golden
  digests are built on;
- :mod:`repro.conformance.selftest` — the ``repro selftest`` driver.

The oracle contract is documented in ``docs/TESTING.md``.
"""

import importlib

#: Public name -> the submodule defining it, imported on first use.
_EXPORTS = {
    "CORPUS_SCENARIOS": "scenarios",
    "DEFAULT_SEEDS": "selftest",
    "DifferentialResult": "oracle",
    "PipelineConfig": "oracle",
    "ReportDiff": "oracle",
    "SelftestReport": "selftest",
    "SyntheticScenario": "scenarios",
    "canon_float": "canon",
    "canonical_json_bytes": "canon",
    "comparable_payload": "oracle",
    "default_configs": "oracle",
    "diff_reports": "oracle",
    "digest": "canon",
    "ensure_reports_identical": "oracle",
    "fmt_fixed": "canon",
    "run_differential": "oracle",
    "run_selftest": "selftest",
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
