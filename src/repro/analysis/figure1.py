"""Figure 1: number of Jito bundles per day, broken down by bundle length,
with shaded collection-downtime gaps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.figures import format_table, sparkline

if TYPE_CHECKING:
    from repro.collector.campaign import CampaignResult


@dataclass
class Figure1:
    """The Figure 1 data: per-date bundle counts by length, plus gap days."""

    counts_by_day: dict[str, dict[int, int]]
    downtime_dates: list[str]
    length_totals: dict[int, int]

    @property
    def dates(self) -> list[str]:
        """All dates with collected bundles, ascending."""
        return list(self.counts_by_day)

    def series_for_length(self, length: int) -> list[int]:
        """The daily count series for one bundle length."""
        return [
            day_counts.get(length, 0)
            for day_counts in self.counts_by_day.values()
        ]

    def majority_length(self) -> int:
        """The bundle length that dominates the population (paper: 1)."""
        return max(self.length_totals, key=self.length_totals.get)

    def length_fraction(self, length: int) -> float:
        """One length's share of all collected bundles."""
        total = sum(self.length_totals.values())
        return self.length_totals.get(length, 0) / total if total else 0.0

    def render(self) -> str:
        """Plain-text rendering of the figure."""
        rows = []
        for date, counts in self.counts_by_day.items():
            marker = " <- gap" if date in self.downtime_dates else ""
            rows.append(
                [date]
                + [str(counts.get(length, 0)) for length in range(1, 6)]
                + [marker]
            )
        table = format_table(
            ["date", "len1", "len2", "len3", "len4", "len5", ""], rows
        )
        spark = sparkline(
            [float(sum(c.values())) for c in self.counts_by_day.values()]
        )
        return (
            "Figure 1 — Jito bundles per day by bundle length\n"
            f"total/day: {spark}\n{table}"
        )


def build_figure1(result: CampaignResult) -> Figure1:
    """Build Figure 1 from a finished campaign."""
    counts = result.store.counts_by_day()
    downtime_dates = [
        result.world.clock.date_of_day(day)
        for day in sorted(result.downtime.affected_days())
    ]
    return Figure1(
        counts_by_day=counts,
        downtime_dates=downtime_dates,
        length_totals=result.store.length_histogram(),
    )
