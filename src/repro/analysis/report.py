"""Full campaign report rendering (used by examples and benches)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.figure1 import build_figure1
from repro.analysis.figure2 import build_figure2
from repro.analysis.figure3 import build_figure3
from repro.analysis.figure4 import build_figure4
from repro.analysis.actors import profile_actors
from repro.analysis.cost_benefit import compute_cost_benefit
from repro.analysis.headline import build_headline_comparison
from repro.analysis.integrity import build_collection_integrity
from repro.analysis.validators import profile_validators
from repro.core.pipeline import AnalysisReport
from repro.errors import ConfigError
from repro.obs.export import render_pipeline_health

if TYPE_CHECKING:
    from repro.collector.campaign import CampaignResult
    from repro.simulation.config import ScenarioConfig


def render_campaign_report(
    result: CampaignResult,
    report: AnalysisReport,
    scenario: ScenarioConfig,
) -> str:
    """Render every figure, the headline comparison, and collection stats."""
    sections = [
        build_headline_comparison(result, report, scenario).render(),
        build_figure1(result).render(),
        build_figure2(result, report).render(),
    ]
    try:
        sections.append(build_figure3(report).render())
    except ConfigError:
        sections.append("Figure 3 — skipped (no priced sandwiches)")
    try:
        sections.append(build_figure4(result, report).render())
    except ConfigError:
        sections.append("Figure 4 — skipped (insufficient bundles)")
    try:
        sections.append(compute_cost_benefit(report).render())
    except ConfigError:
        sections.append("Cost-benefit — skipped (no priced sandwiches)")
    try:
        sections.append(profile_actors(report.quantified).render(top=5))
    except ConfigError:
        sections.append("Actors — skipped (no detections)")
    try:
        events = [q.event for q in report.quantified]
        sections.append(profile_validators(result.world, events).render(top=5))
    except ConfigError:
        sections.append("Validators — skipped (no blocks)")
    collection = result.summary()
    sections.append(
        "Collection — "
        + ", ".join(f"{key}={value}" for key, value in collection.items())
    )
    sections.append(build_collection_integrity(result).render())
    # Only sim-time-deterministic series are rendered here, so the report
    # stays byte-identical across replays of the same seed.
    sections.append(render_pipeline_health(result.metrics.snapshot()))
    return "\n\n".join(sections)
