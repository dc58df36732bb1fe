"""Simulation-to-paper scale conversion.

The simulation runs the paper's 120-day campaign at laptop scale, with the
bulk bundle population and the sandwich-attack series scaled by *different*
factors (DESIGN.md, "Scale-down"): the bulk is thinned harder because a
billion bundle objects cannot be materialized, while the sandwich series
keeps enough samples for stable loss/tip distributions. This module records
those factors and converts measured counts back to paper scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.constants import (
    CAMPAIGN_DAYS,
    PAPER_BUNDLES_PER_DAY,
    PAPER_SANDWICH_COUNT,
)
from repro.core.aggregate import HeadlineStats

if TYPE_CHECKING:
    from repro.simulation.config import ScenarioConfig


@dataclass(frozen=True)
class ScaleFactors:
    """How many real-world units one simulated unit stands for."""

    bundle_scale: float
    sandwich_scale: float
    day_scale: float

    @classmethod
    def for_scenario(cls, scenario: ScenarioConfig) -> "ScaleFactors":
        """Derive factors from a scenario's expected volumes."""
        expected_bundles = scenario.expected_bundles_per_day() * scenario.days
        expected_sandwiches = sum(
            scenario.sandwiches_per_day.mean_on_day(day, scenario.days)
            for day in range(scenario.days)
        )
        paper_bundles = PAPER_BUNDLES_PER_DAY * CAMPAIGN_DAYS
        return cls(
            bundle_scale=paper_bundles / max(expected_bundles, 1.0),
            sandwich_scale=PAPER_SANDWICH_COUNT / max(expected_sandwiches, 1.0),
            day_scale=CAMPAIGN_DAYS / scenario.days,
        )


def extrapolated_headline(
    headline: HeadlineStats, factors: ScaleFactors
) -> dict[str, float]:
    """Convert measured headline statistics to paper-scale estimates.

    Per-sandwich quantities scale with the sandwich factor, population-wide
    quantities with the bundle factor; *fractions within a class* (non-SOL
    share, defensive share of length-one, medians, averages) are
    scale-invariant and pass through unchanged. The sandwich share of all
    bundles mixes the two factors.
    """
    sandwiches = headline.sandwich_count * factors.sandwich_scale
    bundles = headline.bundles_collected * factors.bundle_scale
    return {
        "sandwich_count": sandwiches,
        "non_sol_sandwiches": headline.non_sol_sandwiches
        * factors.sandwich_scale,
        "victim_loss_usd": headline.victim_loss_usd * factors.sandwich_scale,
        "attacker_gain_usd": headline.attacker_gain_usd * factors.sandwich_scale,
        "median_victim_loss_usd": headline.median_victim_loss_usd or 0.0,
        "defensive_bundles": headline.defensive_bundles * factors.bundle_scale,
        "defensive_spend_usd": headline.defensive_spend_usd
        * factors.bundle_scale,
        "average_defensive_tip_usd": headline.average_defensive_tip_usd,
        "defensive_fraction_of_length_one": (
            headline.defensive_fraction_of_length_one
        ),
        "non_sol_fraction": headline.non_sol_fraction(),
        "sandwich_bundle_fraction": sandwiches / bundles if bundles else 0.0,
    }
