"""Validator-level analysis: who lands the attacks, who earns the tips.

The paper closes on governance: the Solana Foundation blocklists validators
"participating in mempools which allow sandwich attacks", and the paper
calls for transparency around validator-driven extensions. This module
attributes landed bundles — and sandwich bundles specifically — to the
validators whose slots included them, measuring how sandwich tip revenue
distributes across the validator set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.figures import format_table
from repro.core.events import SandwichEvent
from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.simulation.results import SimulationWorld


@dataclass(frozen=True)
class ValidatorActivity:
    """One validator's bundle-landing activity."""

    name: str
    identity: str
    stake_lamports: int
    blocks_produced: int
    bundles_landed: int
    sandwiches_landed: int
    sandwich_tip_lamports: int
    total_tip_lamports: int

    @property
    def sandwich_tip_share(self) -> float:
        """Sandwich tips as a share of all tips this validator earned."""
        if self.total_tip_lamports == 0:
            return 0.0
        return self.sandwich_tip_lamports / self.total_tip_lamports


@dataclass
class ValidatorStudy:
    """Per-validator attribution of bundles, sandwiches, and tips."""

    activities: list[ValidatorActivity] = field(default_factory=list)

    def total_sandwich_tips(self) -> int:
        """All sandwich tip revenue across validators."""
        return sum(a.sandwich_tip_lamports for a in self.activities)

    def stake_weighted_consistency(self) -> float:
        """Correlation proxy: top-half-by-stake's share of sandwich landings.

        With stake-weighted leader selection and no validator filtering,
        sandwich landings should follow stake — i.e. every Jito validator
        profits from the attacks that flow through its slots, which is the
        governance problem the paper points at.
        """
        if not self.activities:
            return 0.0
        by_stake = sorted(
            self.activities, key=lambda a: a.stake_lamports, reverse=True
        )
        half = max(len(by_stake) // 2, 1)
        top_landings = sum(a.sandwiches_landed for a in by_stake[:half])
        total = sum(a.sandwiches_landed for a in by_stake)
        return top_landings / total if total else 0.0

    def render(self, top: int = 10) -> str:
        """Plain-text validator leaderboard (by sandwich tips earned)."""
        ranked = sorted(
            self.activities,
            key=lambda a: a.sandwich_tip_lamports,
            reverse=True,
        )
        rows = [
            [
                activity.name,
                str(activity.blocks_produced),
                str(activity.bundles_landed),
                str(activity.sandwiches_landed),
                f"{activity.sandwich_tip_lamports:,}",
                f"{activity.sandwich_tip_share:.1%}",
            ]
            for activity in ranked[:top]
        ]
        table = format_table(
            [
                "validator",
                "blocks",
                "bundles",
                "sandwiches",
                "sandwich tips",
                "tip share",
            ],
            rows,
        )
        return (
            "Validators by sandwich tip revenue "
            f"(total {self.total_sandwich_tips():,} lamports)\n{table}"
        )


def profile_validators(
    world: SimulationWorld, events: list[SandwichEvent]
) -> ValidatorStudy:
    """Attribute landed bundles and detected sandwiches to slot leaders.

    Raises:
        ConfigError: if the world produced no blocks.
    """
    if len(world.ledger) == 0:
        raise ConfigError("no blocks to attribute")
    sandwich_by_bundle = {event.bundle_id: event for event in events}

    slot_leader: dict[int, str] = {}
    blocks_by_leader: dict[str, int] = {}
    for block in world.ledger.blocks():
        leader = block.leader.to_base58()
        slot_leader[block.slot] = leader
        blocks_by_leader[leader] = blocks_by_leader.get(leader, 0) + 1

    bundles_by_leader: dict[str, int] = {}
    sandwiches_by_leader: dict[str, int] = {}
    sandwich_tips_by_leader: dict[str, int] = {}
    tips_by_leader: dict[str, int] = {}
    for outcome in world.block_engine.bundle_log:
        leader = slot_leader.get(outcome.slot)
        if leader is None:
            continue
        bundles_by_leader[leader] = bundles_by_leader.get(leader, 0) + 1
        tips_by_leader[leader] = (
            tips_by_leader.get(leader, 0) + outcome.tip_lamports
        )
        if outcome.bundle_id in sandwich_by_bundle:
            sandwiches_by_leader[leader] = (
                sandwiches_by_leader.get(leader, 0) + 1
            )
            sandwich_tips_by_leader[leader] = (
                sandwich_tips_by_leader.get(leader, 0) + outcome.tip_lamports
            )

    activities = []
    for validator in world.schedule.validators:
        identity = validator.identity.to_base58()
        activities.append(
            ValidatorActivity(
                name=validator.name or identity[:8],
                identity=identity,
                stake_lamports=validator.stake_lamports,
                blocks_produced=blocks_by_leader.get(identity, 0),
                bundles_landed=bundles_by_leader.get(identity, 0),
                sandwiches_landed=sandwiches_by_leader.get(identity, 0),
                sandwich_tip_lamports=sandwich_tips_by_leader.get(identity, 0),
                total_tip_lamports=tips_by_leader.get(identity, 0),
            )
        )
    return ValidatorStudy(activities=activities)
