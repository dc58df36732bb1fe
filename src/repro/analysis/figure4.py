"""Figure 4: cumulative distribution of Jito tips for bundles of length one,
length three, and bundles identified as Sandwiching attacks.

The paper's findings this figure carries: over 86% of length-one bundles tip
at or below 100,000 lamports (defensive bundling); the median length-three
bundle tips 1,000 lamports while the median Sandwiching bundle tips over
2,000,000 — three orders of magnitude apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.figures import format_table
from repro.constants import DEFENSIVE_TIP_THRESHOLD_LAMPORTS
from repro.core.pipeline import AnalysisReport
from repro.errors import ConfigError
from repro.utils.stats import Cdf

if TYPE_CHECKING:
    from repro.collector.campaign import CampaignResult


@dataclass
class Figure4:
    """Tip CDFs for the three bundle groups."""

    length_one: Cdf
    length_three: Cdf
    sandwiches: Cdf | None

    def fraction_length_one_below_threshold(
        self, threshold: int = DEFENSIVE_TIP_THRESHOLD_LAMPORTS
    ) -> float:
        """Share of length-one bundles at or below the defensive threshold."""
        return self.length_one.fraction_at_or_below(threshold)

    def median_tips(self) -> dict[str, float]:
        """Median tip per group (lamports)."""
        medians = {
            "length_one": self.length_one.median(),
            "length_three": self.length_three.median(),
        }
        if self.sandwiches is not None:
            medians["sandwich"] = self.sandwiches.median()
        return medians

    def sandwich_to_length_three_ratio(self) -> float | None:
        """Median sandwich tip over median length-three tip (paper: >1000x)."""
        if self.sandwiches is None:
            return None
        len3_median = self.length_three.median()
        if len3_median <= 0:
            return None
        return self.sandwiches.median() / len3_median

    def render(self) -> str:
        """Plain-text rendering of the three CDFs' key quantiles."""
        quantiles = [0.05, 0.25, 0.5, 0.75, 0.95, 0.99]
        rows = []
        for q in quantiles:
            row = [
                f"p{int(q * 100):02d}",
                f"{self.length_one.quantile(q):,.0f}",
                f"{self.length_three.quantile(q):,.0f}",
            ]
            row.append(
                f"{self.sandwiches.quantile(q):,.0f}" if self.sandwiches else "-"
            )
            rows.append(row)
        table = format_table(
            ["quantile", "len-1 tip", "len-3 tip", "sandwich tip"], rows
        )
        below = self.fraction_length_one_below_threshold()
        return (
            "Figure 4 — CDF of Jito tips (lamports) by bundle group\n"
            f"length-1 at or below 100,000 lamports: {below:.1%}\n"
            f"{table}"
        )


def build_figure4(result: CampaignResult, report: AnalysisReport) -> Figure4:
    """Build Figure 4 from a campaign and its analysis report.

    Raises:
        ConfigError: if the store lacks length-one or length-three bundles.
    """
    store = result.store
    length_one = [b.tip_lamports for b in store.bundles_of_length(1)]
    length_three = [b.tip_lamports for b in store.bundles_of_length(3)]
    if not length_one or not length_three:
        raise ConfigError("store lacks length-1 or length-3 bundles")
    sandwich_tips = [q.event.tip_lamports for q in report.quantified]
    return Figure4(
        length_one=Cdf(length_one),
        length_three=Cdf(length_three),
        sandwiches=Cdf(sandwich_tips) if sandwich_tips else None,
    )
