"""The measurement collector: the paper's Section 3.1 methodology.

- :class:`~repro.collector.poller.BundlePoller` requests the most recent
  bundles on a two-minute cadence and checks successive-response overlap;
- :class:`~repro.collector.coverage.CoverageEstimator` turns those overlap
  observations into the paper's 95%-of-pairs statistic;
- :class:`~repro.collector.store.BundleStore` deduplicates and persists
  everything collected;
- :class:`~repro.collector.detail_fetcher.TxDetailFetcher` pulls transaction
  contents for length-three bundles only, in rate-limited batches;
- :class:`~repro.collector.campaign.MeasurementCampaign` wires all of it to a
  live simulation.
"""

import importlib

#: Public name -> the submodule defining it, imported on first use.
_EXPORTS = {
    "BundlePoller": "poller",
    "BundleStore": "store",
    "CampaignResult": "campaign",
    "CoverageEstimator": "coverage",
    "DetailFetcherConfig": "detail_fetcher",
    "ExplorerClient": "client",
    "HttpExplorerClient": "http_client",
    "InProcessExplorerClient": "client",
    "MeasurementCampaign": "campaign",
    "PersistentBundleStore": "persistent",
    "PollStatus": "poller",
    "PollerConfig": "poller",
    "TxDetailFetcher": "detail_fetcher",
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
