"""The simulated Jito Explorer: the undocumented API the paper scraped.

:class:`~repro.explorer.service.ExplorerService` reproduces the two endpoints
the paper reverse engineered: a recent-bundles listing (default page size 200,
widenable to 50,000) and a bulk transaction-detail endpoint. The service
enforces per-client rate limits and injected instability windows.
:mod:`repro.explorer.http_server` exposes the same service over real HTTP for
end-to-end collector tests.
"""

import importlib

#: Public name -> the submodule defining it, imported on first use.
_EXPORTS = {
    "BundleRecord": "models",
    "ExplorerConfig": "service",
    "ExplorerService": "service",
    "TransactionRecord": "models",
    "bundle_record_from_json": "wire",
    "bundle_record_to_json": "wire",
    "transaction_record_from_json": "wire",
    "transaction_record_to_json": "wire",
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
