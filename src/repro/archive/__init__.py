"""repro.archive: the indexed, resumable campaign archive.

A durable SQLite mirror of everything one measurement campaign collects and
derives, plus the query engine re-measurement studies run against it:

- :mod:`repro.archive.schema` — versioned DDL and wire↔row converters
- :mod:`repro.archive.database` — WAL-mode connection and migrations
- :mod:`repro.archive.store` — batched :class:`ArchiveBundleStore` writer
- :mod:`repro.archive.query` — typed filters, pagination, aggregations
- :mod:`repro.archive.checkpoint` — kill/resume with byte-identical output
- :mod:`repro.archive.incremental` — watermarked delta re-analysis
"""

import importlib

#: Public name -> the submodule defining it, imported on first use.
_EXPORTS = {
    "ARCHIVE_FILENAME": "database",
    "ArchiveBundleStore": "store",
    "ArchiveChunk": "query",
    "ArchiveDatabase": "database",
    "ArchiveQuery": "query",
    "BundleFilter": "query",
    "BundleKey": "query",
    "CHECKPOINT_VERSION": "checkpoint",
    "CheckpointedCampaign": "checkpoint",
    "FlushPolicy": "store",
    "IncrementalAnalyzer": "incremental",
    "IncrementalResult": "incremental",
    "SandwichFilter": "query",
    "SCHEMA_VERSION": "schema",
    "scenario_fingerprint": "checkpoint",
    "is_archive_path": "database",
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
