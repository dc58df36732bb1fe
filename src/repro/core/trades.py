"""Trade extraction from collected transaction records.

Turns a :class:`~repro.explorer.models.TransactionRecord` into the analyst's
view of the trade it performed: which mints moved, in which direction, at
what realized exchange rate — the inputs to every detection criterion.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DetectionError
from repro.explorer.models import TransactionRecord
from repro.jito.tip_identity import is_tip_account


@dataclass(frozen=True)
class TradeLeg:
    """One DEX swap performed by a transaction."""

    owner: str
    pool: str
    mint_in: str
    mint_out: str
    amount_in: int
    amount_out: int

    @property
    def rate(self) -> float:
        """Realized price: units of ``mint_in`` paid per unit of ``mint_out``.

        Raises:
            DetectionError: on a zero-output swap (cannot appear on-chain).
        """
        if self.amount_out <= 0:
            raise DetectionError(
                f"swap with non-positive output: {self.amount_out}"
            )
        return self.amount_in / self.amount_out

    @property
    def mints(self) -> frozenset[str]:
        """The unordered mint pair this leg traded."""
        return frozenset((self.mint_in, self.mint_out))


def _memoized_trades(record: TransactionRecord) -> tuple[TradeLeg, ...]:
    """The record's swap legs, parsed once and cached on the instance.

    Records are immutable, so the parsed legs are stashed in the frozen
    dataclass's ``__dict__`` (the same trick :class:`~repro.solana.keys.
    Signature` uses for its base58 form). Detection evaluates several
    criteria per record, and the windowed detector revisits the same record
    across overlapping windows — each re-parse of the event payload is pure
    waste.
    """
    cached = record.__dict__.get("_trades")
    if cached is not None:
        return cached
    legs = tuple(
        TradeLeg(
            owner=str(event["owner"]),
            pool=str(event["pool"]),
            mint_in=str(event["mint_in"]),
            mint_out=str(event["mint_out"]),
            amount_in=int(event["amount_in"]),
            amount_out=int(event["amount_out"]),
        )
        for event in record.events
        if event.get("type") == "swap"
    )
    object.__setattr__(record, "_trades", legs)
    return legs


def extract_trades(record: TransactionRecord) -> list[TradeLeg]:
    """All swap legs a transaction executed, in program order."""
    return list(_memoized_trades(record))


def traded_mints(record: TransactionRecord) -> frozenset[str]:
    """The set of mints the transaction's swaps touched (cached per record)."""
    cached = record.__dict__.get("_mints")
    if cached is not None:
        return cached
    mints: set[str] = set()
    for leg in _memoized_trades(record):
        mints |= leg.mints
    result = frozenset(mints)
    object.__setattr__(record, "_mints", result)
    return result


def net_deltas_for(
    records: list[TransactionRecord], owner: str
) -> dict[str, int]:
    """Net token balance change of ``owner`` summed across ``records``.

    This is the paper's "net change in currencies as a result of all
    transactions within the bundle" for one account, with zero entries
    dropped.
    """
    totals: dict[str, int] = {}
    for record in records:
        for mint, delta in record.token_deltas.get(owner, {}).items():
            totals[mint] = totals.get(mint, 0) + delta
    return {mint: delta for mint, delta in totals.items() if delta != 0}


def is_tip_only_record(record: TransactionRecord) -> bool:
    """Whether a collected transaction did nothing but tip Jito.

    Mirrors :func:`repro.jito.tips.is_tip_only_transaction`, but evaluated on
    the *collected record* (events), since the detector never holds the
    original transaction object.
    """
    if any(event.get("type") == "swap" for event in record.events):
        return False
    if any(event.get("type") == "token_transfer" for event in record.events):
        return False
    transfers = [e for e in record.events if e.get("type") == "transfer"]
    if not transfers:
        return False
    return all(is_tip_account(str(e.get("dest", ""))) for e in transfers)


def tip_paid_by_record(record: TransactionRecord) -> int:
    """Lamports this transaction paid to Jito tip accounts."""
    return sum(
        int(event.get("lamports", 0))
        for event in record.events
        if event.get("type") == "transfer"
        and is_tip_account(str(event.get("dest", "")))
    )
