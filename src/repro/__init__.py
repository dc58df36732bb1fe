"""repro — a reproduction of "Quantifying the Threat of Sandwiching MEV on
Jito: A Measurement of Solana's Leading Validator Client" (IMC 2025).

The package is layered bottom-up:

- :mod:`repro.solana` / :mod:`repro.dex` / :mod:`repro.jito` — the chain,
  market, and validator-extension substrates, built from scratch;
- :mod:`repro.agents` / :mod:`repro.simulation` — the calibrated workload
  and campaign engine;
- :mod:`repro.explorer` / :mod:`repro.collector` — the measured API and the
  paper's collection methodology;
- :mod:`repro.core` — the paper's contribution: sandwich detection, loss
  quantification, defensive-bundling classification;
- :mod:`repro.baselines` / :mod:`repro.analysis` — comparisons and every
  table/figure of the evaluation;
- :mod:`repro.parallel` — the sharded multiprocess analysis engine,
  byte-identical to the serial pipeline at any job count;
- :mod:`repro.obs` — metrics, span tracing, and structured event telemetry
  across the whole pipeline (deterministic under the sim clock).

Quickstart::

    from repro import MeasurementCampaign, AnalysisPipeline, small_scenario

    result = MeasurementCampaign(small_scenario()).run()
    report = AnalysisPipeline().analyze_campaign(result)
    print(report.headline.sandwich_count)
"""

import importlib

__version__ = "1.1.0"

#: Public name -> the module defining it, imported on first use, so that
#: ``import repro.archive`` (say) does not load the simulator.
_EXPORTS = {
    "AnalysisPipeline": "repro.core",
    "DefensiveBundlingClassifier": "repro.core",
    "DetectorSpec": "repro.parallel",
    "EventLog": "repro.obs",
    "LossQuantifier": "repro.core",
    "MeasurementCampaign": "repro.collector",
    "MetricsRegistry": "repro.obs",
    "NULL_REGISTRY": "repro.obs",
    "ParallelAnalysisEngine": "repro.parallel",
    "SandwichDetector": "repro.core",
    "ScenarioConfig": "repro.simulation",
    "SimulationEngine": "repro.simulation",
    "paper_scenario": "repro.simulation",
    "small_scenario": "repro.simulation",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    """Import the module that defines ``name`` on first access (PEP 562)."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
