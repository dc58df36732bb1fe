"""Jito tips: tip construction and extraction, and the block-level
tip-percentile tracker. The canonical tip accounts live in
:mod:`repro.jito.tip_identity` and are re-exported here.

Tips are plain lamport transfers to one of eight well-known accounts; the
block engine uses them as the bundle-auction currency, and the paper uses
them to separate defensive bundles (tip <= 100,000 lamports) from
priority-seeking ones, and to characterize attack bundles (median tip above
2,000,000 lamports).
"""

from __future__ import annotations

import json

from repro.constants import (
    HIGH_TIP_P95_LAMPORTS,
    MIN_JITO_TIP_LAMPORTS,
    NUM_JITO_TIP_ACCOUNTS,
)
from repro.errors import BundleError
from repro.jito.tip_identity import is_tip_account, tip_accounts
from repro.solana.instruction import (
    COMPUTE_BUDGET_PROGRAM_ID,
    SYSTEM_PROGRAM_ID,
    Instruction,
)
from repro.solana.keys import Pubkey
from repro.solana.system_program import transfer
from repro.solana.transaction import Transaction
from repro.utils.stats import percentile


def build_tip_instruction(
    payer: Pubkey, lamports: int, account_index: int = 0
) -> Instruction:
    """Build a tip transfer to tip account ``account_index``.

    Raises:
        BundleError: if the tip is below Jito's 1,000-lamport minimum.
    """
    if lamports < MIN_JITO_TIP_LAMPORTS:
        raise BundleError(
            f"Jito tip must be at least {MIN_JITO_TIP_LAMPORTS} lamports, "
            f"got {lamports}"
        )
    account = tip_accounts()[account_index % NUM_JITO_TIP_ACCOUNTS]
    return transfer(payer, account, lamports)


def _iter_system_transfers(tx: Transaction):
    for instruction in tx.message.instructions:
        if instruction.program_id != SYSTEM_PROGRAM_ID:
            continue
        try:
            payload = json.loads(instruction.data.decode())
        except (UnicodeDecodeError, json.JSONDecodeError):
            continue
        if payload.get("op") != "transfer" or len(instruction.accounts) != 2:
            continue
        yield instruction.accounts[1].pubkey, int(payload["lamports"])


def extract_tip_lamports(tx: Transaction) -> int:
    """Total lamports a transaction pays to Jito tip accounts."""
    return sum(
        lamports
        for dest, lamports in _iter_system_transfers(tx)
        if is_tip_account(dest)
    )


def is_tip_only_transaction(tx: Transaction) -> bool:
    """Whether a transaction does nothing but tip a Jito tip account.

    This is the pattern the paper's fifth criterion excludes: trading apps
    that implement Jito in the backend append a final tip-only transaction
    to an otherwise length-two bundle.
    """
    saw_tip = False
    for instruction in tx.message.instructions:
        if instruction.program_id == COMPUTE_BUDGET_PROGRAM_ID:
            continue
        if instruction.program_id != SYSTEM_PROGRAM_ID:
            return False
        try:
            payload = json.loads(instruction.data.decode())
        except (UnicodeDecodeError, json.JSONDecodeError):
            return False
        if payload.get("op") != "transfer" or len(instruction.accounts) != 2:
            return False
        if not is_tip_account(instruction.accounts[1].pubkey):
            return False
        saw_tip = True
    return saw_tip


class TipPercentileTracker:
    """Per-block tip percentiles — the simulator's "Jito dashboard".

    The paper reads the average 95th-percentile tip within a block from
    Jito's public dashboard (~0.002 SOL); this tracker computes the same
    statistic from the simulated stream.
    """

    def __init__(self) -> None:
        self._block_p95: list[float] = []

    def record_block(self, tips_lamports: list[int]) -> None:
        """Record the tips of all bundles landed in one block."""
        if tips_lamports:
            self._block_p95.append(percentile(sorted(tips_lamports), 95))

    @property
    def blocks_observed(self) -> int:
        """Number of blocks that landed at least one bundle."""
        return len(self._block_p95)

    def average_p95(self) -> float:
        """Mean of per-block 95th-percentile tips (lamports).

        Falls back to the paper's dashboard figure when no blocks carried
        bundles yet, so threshold logic stays well-defined at startup.
        """
        if not self._block_p95:
            return float(HIGH_TIP_P95_LAMPORTS)
        return sum(self._block_p95) / len(self._block_p95)

    def high_tip_threshold(self) -> float:
        """A "high tip" is anything above 50% of the average per-block p95
        (the latency study the paper cites uses this definition)."""
        return 0.5 * self.average_p95()
