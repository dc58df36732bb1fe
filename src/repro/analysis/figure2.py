"""Figure 2: Sandwiching attacks and defensive bundles per day (top);
victim losses and attacker gains per day in SOL (bottom)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.figures import format_table, sparkline
from repro.core.pipeline import AnalysisReport

if TYPE_CHECKING:
    from repro.collector.campaign import CampaignResult


@dataclass
class Figure2:
    """Daily attack/defense/loss/gain series."""

    dates: list[str]
    attacks: list[int]
    defensive: list[int]
    victim_loss_sol: list[float]
    attacker_gain_sol: list[float]
    downtime_dates: list[str]

    def attack_trend_ratio(self) -> float:
        """Late-period attack rate over early-period rate (paper: falling).

        Compares mean daily attacks in the first and last quarter of the
        campaign, skipping downtime-affected days.
        """
        clean = [
            count
            for date, count in zip(self.dates, self.attacks)
            if date not in self.downtime_dates
        ]
        if len(clean) < 4:
            return 1.0
        quarter = max(len(clean) // 4, 1)
        early = sum(clean[:quarter]) / quarter
        late = sum(clean[-quarter:]) / quarter
        return late / early if early else 1.0

    def defensive_trend_ratio(self) -> float:
        """Late-period defensive rate over early-period rate (paper: rising)."""
        clean = [
            count
            for date, count in zip(self.dates, self.defensive)
            if date not in self.downtime_dates
        ]
        if len(clean) < 4:
            return 1.0
        quarter = max(len(clean) // 4, 1)
        early = sum(clean[:quarter]) / quarter
        late = sum(clean[-quarter:]) / quarter
        return late / early if early else 1.0

    def render(self) -> str:
        """Plain-text rendering of both panels."""
        rows = [
            [
                date,
                str(attacks),
                str(defensive),
                f"{loss:.3f}",
                f"{gain:.3f}",
                " <- gap" if date in self.downtime_dates else "",
            ]
            for date, attacks, defensive, loss, gain in zip(
                self.dates,
                self.attacks,
                self.defensive,
                self.victim_loss_sol,
                self.attacker_gain_sol,
            )
        ]
        table = format_table(
            ["date", "attacks", "defensive", "loss(SOL)", "gain(SOL)", ""],
            rows,
        )
        return (
            "Figure 2 — attacks & defensive bundles per day (top); "
            "losses & gains per day in SOL (bottom)\n"
            f"attacks:   {sparkline([float(a) for a in self.attacks])}\n"
            f"defensive: {sparkline([float(d) for d in self.defensive])}\n"
            f"{table}"
        )


def build_figure2(result: CampaignResult, report: AnalysisReport) -> Figure2:
    """Build Figure 2 from a campaign and its analysis report."""
    defensive_by_day = report.defensive.defensive_per_day()
    all_dates = sorted(set(defensive_by_day) | set(report.daily))
    attacks, losses, gains, defensive = [], [], [], []
    for date in all_dates:
        stats = report.daily.get(date)
        attacks.append(stats.attacks if stats else 0)
        losses.append(stats.victim_loss_sol if stats else 0.0)
        gains.append(stats.attacker_gain_sol if stats else 0.0)
        defensive.append(defensive_by_day.get(date, 0))
    downtime_dates = [
        result.world.clock.date_of_day(day)
        for day in sorted(result.downtime.affected_days())
    ]
    return Figure2(
        dates=all_dates,
        attacks=attacks,
        defensive=defensive,
        victim_loss_sol=losses,
        attacker_gain_sol=gains,
        downtime_dates=downtime_dates,
    )
