"""Versioned reader for BENCH_PERF.json across schema generations.

``bench-perf/1`` carried ``cpu_count`` only at the top level and no
engine attribution, which made cross-host trajectory comparisons
ambiguous: a 1.1x "regression" on a 1-CPU runner is noise, not signal,
and nothing in the record said which engine produced it. ``bench-perf/2``
stamps ``cpu_count`` and ``engine`` onto every record (plus optional
gate-skip annotations and stage profiles). :func:`load_bench_perf`
returns any known generation normalized to the current one, so trend
tooling reads one shape regardless of which commit wrote the file.
"""

from __future__ import annotations

import json
from pathlib import Path

SCHEMA_V1 = "bench-perf/1"
SCHEMA_V2 = "bench-perf/2"
CURRENT_SCHEMA = SCHEMA_V2


def upgrade_v1(payload: dict) -> dict:
    """Normalize a ``bench-perf/1`` payload to the v2 shape in place-free
    form: the top-level ``cpu_count`` is copied onto every record and
    engines are inferred from record names (v1 predates mixed-engine
    records, so the name is authoritative; ``columnar`` names belong to
    the since-deleted columnar engine)."""
    cpu_count = payload.get("cpu_count")
    records = {}
    for name, record in payload.get("records", {}).items():
        upgraded = dict(record)
        upgraded.setdefault("cpu_count", cpu_count)
        upgraded.setdefault(
            "engine", "columnar" if "columnar" in name else "object"
        )
        records[name] = upgraded
    return {
        "schema": SCHEMA_V2,
        "cpu_count": cpu_count,
        "records": records,
    }


def load_bench_perf(source: str | Path | dict) -> dict:
    """Load BENCH_PERF data (path or parsed dict), normalized to v2.

    Raises ``ValueError`` on an unknown schema string so trend tooling
    fails loudly instead of misreading a future generation.
    """
    if isinstance(source, dict):
        payload = source
    else:
        payload = json.loads(Path(source).read_text(encoding="utf-8"))
    schema = payload.get("schema")
    if schema == SCHEMA_V2:
        return payload
    if schema == SCHEMA_V1:
        return upgrade_v1(payload)
    raise ValueError(
        f"unknown BENCH_PERF schema {schema!r}; "
        f"this reader understands {SCHEMA_V1} and {SCHEMA_V2}"
    )
