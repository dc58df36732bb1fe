"""Headline comparison: measured (and extrapolated) versus the paper."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import constants
from repro.analysis.extrapolate import ScaleFactors, extrapolated_headline
from repro.analysis.figures import format_table
from repro.core.pipeline import AnalysisReport

if TYPE_CHECKING:
    from repro.collector.campaign import CampaignResult
    from repro.simulation.config import ScenarioConfig


@dataclass(frozen=True)
class HeadlineRow:
    """One compared statistic."""

    name: str
    paper: float
    measured: float
    extrapolated: float | None
    scale_free: bool

    def ratio(self) -> float:
        """Comparable value over the paper's (extrapolated when scaled)."""
        value = self.measured if self.scale_free else (self.extrapolated or 0.0)
        return value / self.paper if self.paper else 0.0


@dataclass
class HeadlineComparison:
    """All Section 4 headline statistics, paper vs this run."""

    rows: list[HeadlineRow]
    factors: ScaleFactors

    def row(self, name: str) -> HeadlineRow:
        """Look up a row by statistic name."""
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    def render(self) -> str:
        """Plain-text rendering of the comparison table."""
        body = []
        for row in self.rows:
            body.append(
                [
                    row.name,
                    f"{row.paper:,.4g}",
                    f"{row.measured:,.4g}",
                    f"{row.extrapolated:,.4g}" if row.extrapolated else "-",
                    f"{row.ratio():.2f}x",
                ]
            )
        table = format_table(
            ["statistic", "paper", "measured", "extrapolated", "ratio"], body
        )
        return (
            "Headline statistics — paper vs this reproduction\n"
            f"(bundle scale 1:{self.factors.bundle_scale:,.0f}, "
            f"sandwich scale 1:{self.factors.sandwich_scale:,.0f})\n"
            f"{table}"
        )


def build_headline_comparison(
    result: CampaignResult,
    report: AnalysisReport,
    scenario: ScenarioConfig,
) -> HeadlineComparison:
    """Assemble the measured-vs-paper headline table."""
    factors = ScaleFactors.for_scenario(scenario)
    headline = report.headline
    extrapolated = extrapolated_headline(headline, factors)
    rows = [
        HeadlineRow(
            "sandwich_count",
            constants.PAPER_SANDWICH_COUNT,
            headline.sandwich_count,
            extrapolated["sandwich_count"],
            scale_free=False,
        ),
        HeadlineRow(
            "victim_loss_usd",
            constants.PAPER_VICTIM_LOSS_USD,
            headline.victim_loss_usd,
            extrapolated["victim_loss_usd"],
            scale_free=False,
        ),
        HeadlineRow(
            "attacker_gain_usd",
            constants.PAPER_ATTACKER_GAIN_USD,
            headline.attacker_gain_usd,
            extrapolated["attacker_gain_usd"],
            scale_free=False,
        ),
        HeadlineRow(
            "median_victim_loss_usd",
            constants.PAPER_MEDIAN_VICTIM_LOSS_USD,
            headline.median_victim_loss_usd or 0.0,
            None,
            scale_free=True,
        ),
        HeadlineRow(
            "non_sol_fraction",
            constants.PAPER_NON_SOL_SANDWICHES / constants.PAPER_SANDWICH_COUNT,
            headline.non_sol_fraction(),
            None,
            scale_free=True,
        ),
        HeadlineRow(
            "defensive_spend_usd",
            constants.PAPER_DEFENSIVE_SPEND_USD,
            headline.defensive_spend_usd,
            extrapolated["defensive_spend_usd"],
            scale_free=False,
        ),
        HeadlineRow(
            "defensive_fraction_of_length_one",
            constants.PAPER_LEN1_DEFENSIVE_FRACTION,
            headline.defensive_fraction_of_length_one,
            None,
            scale_free=True,
        ),
        HeadlineRow(
            "average_defensive_tip_usd",
            constants.PAPER_AVG_DEFENSIVE_TIP_USD,
            headline.average_defensive_tip_usd,
            None,
            scale_free=True,
        ),
        HeadlineRow(
            "poll_overlap_fraction",
            constants.PAPER_POLL_OVERLAP_FRACTION,
            headline.poll_overlap_fraction or 0.0,
            None,
            scale_free=True,
        ),
        HeadlineRow(
            "sandwich_bundle_fraction",
            constants.PAPER_SANDWICH_BUNDLE_FRACTION,
            headline.sandwich_bundle_fraction,
            extrapolated["sandwich_bundle_fraction"],
            scale_free=False,
        ),
    ]
    return HeadlineComparison(rows=rows, factors=factors)
