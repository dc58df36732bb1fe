"""Jito substrate: bundles, tips, the block engine, and searcher access.

Implements the validator-client extension the paper measures: searchers
submit bundles of up to five transactions that execute atomically, in order,
prioritized by a Jito tip paid to canonical tip accounts. The final ledger
retains no trace of bundling — bundle structure exists only in the engine's
own records, served by :mod:`repro.explorer`.
"""

import importlib

#: Public name -> the submodule defining it, imported on first use.
_EXPORTS = {
    "BlockEngine": "block_engine",
    "Bundle": "bundle",
    "BundleOutcome": "block_engine",
    "EpochDistribution": "tip_distribution",
    "PrivateMempool": "relayer",
    "Relayer": "relayer",
    "SearcherClient": "searcher",
    "TipDistributor": "tip_distribution",
    "ValidatorPayout": "tip_distribution",
    "TipPercentileTracker": "tips",
    "build_tip_instruction": "tips",
    "extract_tip_lamports": "tips",
    "is_tip_only_transaction": "tips",
    "tip_accounts": "tips",
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
