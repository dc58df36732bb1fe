"""The layer boundaries the tracer wraps, and the per-layer metrics.

Each :class:`Boundary` names one public function or method of the
program, the span it records, and the workloads on which it is wrapped.
On those workloads it must record at least one call unless it is marked
``optional`` (an agent class the scenario may never schedule, a route the
request mix may never hit); otherwise the run fails. Every boundary is
resolved on every traced run, so a rename fails on all workloads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CAMPAIGN = frozenset({"campaign"})
ANALYZE = frozenset({"analyze"})
API = frozenset({"api"})


@dataclass(frozen=True)
class Boundary:
    span: str
    target: str
    workloads: frozenset
    optional: bool = False
    on_return: Callable | None = None
    #: Count-only hooks record no span, so add nothing to self times.
    records_span: bool = True


def _outer(span) -> bool:
    return span is None or span[3] is None or span[3][0] != span[0]


def _agent_generated(tracer, span, args, result) -> None:
    if _outer(span) and result is not None:
        tracer.counts["agents.submitted"] += 1


def _txs_one(tracer, span, args, result) -> None:
    tracer.counts["solana.txs"] += 1


def _txs_many(tracer, span, args, result) -> None:
    tracer.counts["solana.txs"] += len(args[1])


def _block(tracer, span, args, result) -> None:
    tracer.counts["jito.bundles_landed"] = args[0].stats.bundles_landed


def _served(tracer, span, args, result) -> None:
    tracer.counts["explorer.bundles_served"] += len(result)


def _poll(tracer, span, args, result) -> None:
    status = getattr(result.status, "name", str(result.status))
    if status == "OK":
        tracer.counts["collector.polls_ok"] += 1
        tracer.counts["collector.returned"] += result.returned
        tracer.counts["collector.new_bundles"] += result.new_bundles
    elif status == "FAILED":
        tracer.counts["collector.polls_failed"] += 1


def _saved(tracer, span, args, result) -> None:
    directory = Path(args[1])
    for name in ("bundles.jsonl", "transactions.jsonl"):
        path = directory / name
        if path.is_file():
            tracer.counts["collector.jsonl_bytes"] += path.stat().st_size


def _flushed(tracer, span, args, result) -> None:
    if result:
        tracer.counts["archive.flushes"] += 1


def _checkpoint(tracer, span, args, result) -> None:
    # The size of the payload save_checkpoint serialises.
    payload = json.dumps(args[1], sort_keys=True)
    tracer.counts["archive.checkpoint_bytes"] += len(payload.encode())


def _stage_profile(tracer, span, args, result) -> None:
    # The engine's own breakdown, reported beside the spans whatever its
    # stage names are.
    profile = getattr(args[0], "stage_profile", None)
    as_dict = getattr(profile, "as_dict", None)
    if callable(as_dict):
        tracer.extras.setdefault("stage_profile", []).append(as_dict())


def _handled(tracer, span, args, result) -> None:
    status = result[0]
    tracer.counts["serve.requests"] += 1
    if status == 304:
        tracer.counts["serve.not_modified"] += 1
    elif status == 429:
        tracer.counts["serve.rate_limited"] += 1


def _cache_get(tracer, span, args, result) -> None:
    tracer.counts["serve.cache_lookups"] += 1
    if result is not None:
        tracer.counts["serve.cache_hits"] += 1


def _agents() -> list[Boundary]:
    classes = [
        ("retail", "RetailTrader", False),
        ("defensive", "DefensiveUser", False),
        ("priority", "PriorityUser", False),
        ("arbitrage", "ArbitrageBot", False),
        ("app_backend", "AppBackendBundler", False),
        ("attacker", "SandwichAttacker", False),
        ("disguised", "DisguisedAttacker", True),
        ("opportunist", "OpportunisticAttacker", True),
    ]
    return [
        Boundary(
            "agents.generate",
            f"repro.agents.{module}:{cls}.generate",
            CAMPAIGN,
            optional=optional,
            on_return=_agent_generated,
        )
        for module, cls, optional in classes
    ]


def _figures() -> list[Boundary]:
    return [
        Boundary("analysis.figures", f"repro.analysis.{module}:{prefix}{n}", CAMPAIGN)
        for n in range(1, 5)
        for module, prefix in ((f"figure{n}", "build_figure"), ("export", "export_figure"))
    ]


_QUERY = "repro.archive.query:ArchiveQuery."
_REPO = "repro.serve.repositories:"

BOUNDARIES: list[Boundary] = [
    # --- campaign: simulate, collect, archive write, analyze, report ----------
    Boundary("simulation", "repro.simulation.engine:SimulationEngine.run_day", CAMPAIGN),
    Boundary("simulation", "repro.simulation.engine:SimulationEngine.finish", CAMPAIGN),
    *_agents(),
    Boundary("solana.execute", "repro.solana.bank:Bank.execute_transaction", CAMPAIGN,
             on_return=_txs_one),
    Boundary("solana.execute", "repro.solana.bank:Bank.execute_atomic", CAMPAIGN,
             on_return=_txs_many),
    Boundary("jito.produce_block", "repro.jito.block_engine:BlockEngine.produce_block",
             CAMPAIGN, on_return=_block),
    Boundary("explorer.recent_bundles",
             "repro.explorer.service:ExplorerService.recent_bundles", CAMPAIGN,
             on_return=_served),
    Boundary("explorer.transactions",
             "repro.explorer.service:ExplorerService.transactions", CAMPAIGN),
    Boundary("collector.poll", "repro.collector.poller:BundlePoller.poll_once", CAMPAIGN,
             on_return=_poll),
    Boundary("collector.fetch",
             "repro.collector.detail_fetcher:TxDetailFetcher.fetch_once", CAMPAIGN),
    Boundary("collector.overlap",
             "repro.collector.coverage:CoverageEstimator.overlap_fraction", CAMPAIGN),
    Boundary("collector.jsonl_save", "repro.collector.store:BundleStore.save", CAMPAIGN,
             on_return=_saved),
    Boundary("archive.add", "repro.archive.store:ArchiveBundleStore.add_bundles", CAMPAIGN),
    Boundary("archive.add", "repro.archive.store:ArchiveBundleStore.add_details", CAMPAIGN),
    Boundary("archive.flush", "repro.archive.store:ArchiveBundleStore.flush", CAMPAIGN,
             on_return=_flushed),
    Boundary("archive.checkpoint",
             "repro.archive.store:ArchiveBundleStore.save_checkpoint", CAMPAIGN,
             on_return=_checkpoint),
    Boundary("core.analyze", "repro.core.pipeline:AnalysisPipeline.analyze_campaign",
             CAMPAIGN),
    Boundary("analysis.report", "repro.analysis.report:render_campaign_report", CAMPAIGN),
    *_figures(),
    # --- analyze: archive read and persist, chunk engine ---------------------
    Boundary("archive.open", "repro.archive.database:ArchiveDatabase.__init__", ANALYZE),
    Boundary("archive.chunk_plan", _QUERY + "chunk_bounds", ANALYZE),
    Boundary("pipeline.load", "repro.parallel.worker:load_task", ANALYZE),
    Boundary("pipeline.queue_wait", "repro.pipeline.prefetch:BoundedWorkQueue.get",
             ANALYZE),
    Boundary("parallel.compute", "repro.parallel.worker:compute_task", ANALYZE),
    # Its self time is the process pool's start and the wait on its
    # workers (pool path), or the per-chunk bookkeeping (in-process path).
    Boundary("parallel.run_tasks",
             "repro.parallel.engine:ParallelAnalysisEngine.run_tasks", ANALYZE),
    Boundary("parallel.merge", "repro.parallel.merge:merge_outcomes", ANALYZE),
    Boundary("parallel.report",
             "repro.parallel.engine:ParallelAnalysisEngine.build_report", ANALYZE),
    Boundary("parallel.stage_profile",
             "repro.parallel.engine:ParallelAnalysisEngine.analyze", ANALYZE,
             on_return=_stage_profile, records_span=False),
    Boundary("archive.record_sandwiches",
             "repro.archive.store:ArchiveBundleStore.record_sandwiches", ANALYZE),
    Boundary("archive.record_defensive",
             "repro.archive.store:ArchiveBundleStore.record_defensive", ANALYZE),
    # --- api: app, repositories, cache, archive point and range reads --------
    Boundary("serve.handle", "repro.serve.app:ArchiveApiApp.handle", API,
             on_return=_handled),
    Boundary("serve.cache", "repro.serve.cache:ResponseCache.get", API,
             on_return=_cache_get),
    *[
        Boundary("serve.repository", _REPO + target, API, optional=optional)
        for target, optional in (
            ("BundleRepository.page", False),
            ("BundleRepository.detail", False),
            ("DetectionRepository.page", False),
            ("DetectionRepository.detail", False),
            ("AggregateRepository.financials", False),
            ("AggregateRepository.daily", False),
            ("AggregateRepository.lengths", False),
            ("AggregateRepository.tips", True),
            ("AggregateRepository.attackers", True),
            ("AggregateRepository.defensive", False),
            ("StatusRepository.status", False),
        )
    ],
    *[
        Boundary("archive.query", _QUERY + name, API, optional=optional)
        for name, optional in (
            ("watermark", False),
            ("bundles", False),
            ("bundle", False),
            ("count_bundles", False),
            ("sandwiches", False),
            ("sandwich_for_bundle", False),
            ("count_sandwiches", True),
            ("count_transactions", False),
            ("defensive_records", False),
            ("defensive_summary", False),
            ("length_histogram", False),
            ("pending_detail_count", False),
            ("sandwiches_per_day", False),
            ("tip_histogram", True),
            ("top_attackers", True),
        )
    ],
]

#: Spans whose self time is reported as ``<span>_s``.
_TIMED = (
    "agents.generate",
    "solana.execute",
    "jito.produce_block",
    "explorer.recent_bundles",
    "explorer.transactions",
    "collector.poll",
    "collector.fetch",
    "collector.overlap",
    "collector.jsonl_save",
    "archive.add",
    "archive.flush",
    "archive.checkpoint",
    "core.analyze",
    "analysis.report",
    "analysis.figures",
    "archive.open",
    "archive.chunk_plan",
    "archive.record_sandwiches",
    "archive.record_defensive",
    "pipeline.load",
    "pipeline.queue_wait",
    "parallel.compute",
    "parallel.run_tasks",
    "parallel.merge",
    "parallel.report",
    "serve.handle",
    "serve.repository",
    "archive.query",
)

#: Call counts (outermost spans) reported as metrics.
_CALLS = {
    "agents.generate_calls": "agents.generate",
    "jito.blocks": "jito.produce_block",
    "collector.overlap_calls": "collector.overlap",
    "parallel.chunks": "parallel.compute",
    "archive.queries": "archive.query",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(summary: dict, counts: dict) -> dict[str, float]:
    """Per-layer metrics from one trace's span summary and counters.

    Layers the workload does not reach report 0.
    """
    def self_s(span: str) -> float:
        return summary.get(span, {}).get("self_s", 0.0)

    def calls(span: str) -> float:
        return summary.get(span, {}).get("calls", 0)

    metrics = {f"{span}_s": self_s(span) for span in _TIMED}
    metrics["simulation.self_s"] = self_s("simulation")
    metrics.update({name: float(calls(span)) for name, span in _CALLS.items()})
    count = lambda key: float(counts.get(key, 0.0))  # noqa: E731
    metrics.update(
        {
            "agents.submission_ratio": _ratio(
                count("agents.submitted"), calls("agents.generate")
            ),
            "solana.txs": count("solana.txs"),
            "jito.bundles_landed": count("jito.bundles_landed"),
            "explorer.calls": float(
                calls("explorer.recent_bundles") + calls("explorer.transactions")
            ),
            "explorer.bundles_served": count("explorer.bundles_served"),
            "collector.polls_ok": count("collector.polls_ok"),
            "collector.polls_failed": count("collector.polls_failed"),
            "collector.new_bundle_ratio": _ratio(
                count("collector.new_bundles"), count("collector.returned")
            ),
            "collector.jsonl_bytes": count("collector.jsonl_bytes"),
            "archive.flushes": count("archive.flushes"),
            "archive.checkpoint_bytes": count("archive.checkpoint_bytes"),
            "serve.cache_hit_ratio": _ratio(
                count("serve.cache_hits"), count("serve.cache_lookups")
            ),
            "serve.not_modified_ratio": _ratio(
                count("serve.not_modified"), count("serve.requests")
            ),
            "serve.rate_limited": count("serve.rate_limited"),
        }
    )
    return metrics


def call_key(boundary: Boundary) -> str:
    """The counter each wrapped call of ``boundary`` increments."""
    return "calls:" + boundary.target


def silent_boundaries(counts: dict, workload: str) -> list[str]:
    """Required boundaries of ``workload`` that recorded no call."""
    return [
        boundary.target
        for boundary in BOUNDARIES
        if workload in boundary.workloads
        and not boundary.optional
        and not counts.get(call_key(boundary))
    ]
