"""The canonical Jito tip accounts: which destinations count as a tip.

A leaf of :mod:`repro.jito` that needs only :mod:`repro.solana.keys`, so
the detector can recognise tip transfers in archived transactions without
importing the transaction, instruction and block-engine machinery that
*builds* tips (:mod:`repro.jito.tips`).
"""

from __future__ import annotations

from functools import lru_cache

from repro.constants import NUM_JITO_TIP_ACCOUNTS
from repro.solana.keys import Pubkey


@lru_cache(maxsize=1)
def tip_accounts() -> tuple[Pubkey, ...]:
    """The eight canonical Jito tip-payment accounts."""
    return tuple(
        Pubkey.from_seed(f"jito-tip-account:{index}")
        for index in range(NUM_JITO_TIP_ACCOUNTS)
    )


@lru_cache(maxsize=1)
def _tip_account_set() -> frozenset[str]:
    return frozenset(account.to_base58() for account in tip_accounts())


def is_tip_account(pubkey: Pubkey | str) -> bool:
    """Whether ``pubkey`` is one of the canonical tip accounts."""
    encoded = pubkey if isinstance(pubkey, str) else pubkey.to_base58()
    return encoded in _tip_account_set()
