"""Solana ledger substrate: keys, transactions, programs, bank, and blocks.

This package implements, from scratch, the slice of Solana semantics the
paper's measurement pipeline depends on: accounts holding lamports, an
SPL-style token layer, atomic transaction execution with base + priority
fees, 400 ms slots with a stake-weighted leader schedule, and per-transaction
balance-change receipts (the raw material for sandwich detection).
"""

import importlib

#: Public name -> the submodule defining it, imported on first use.
_EXPORTS = {
    "Account": "accounts",
    "AccountMeta": "instruction",
    "Bank": "bank",
    "Block": "blocks",
    "Instruction": "instruction",
    "Keypair": "keys",
    "LeaderSchedule": "leader_schedule",
    "Ledger": "ledger",
    "Message": "transaction",
    "Mint": "tokens",
    "Pubkey": "keys",
    "Signature": "keys",
    "Transaction": "transaction",
    "TransactionReceipt": "bank",
    "Validator": "leader_schedule",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Import the submodule that defines ``name`` on first access (PEP 562)."""
    try:
        submodule = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value
