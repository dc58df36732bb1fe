"""DEX substrate: constant-product AMM pools, the swap program, a
Jupiter-like router, and price oracles.

Sandwiching MEV exists because DEX rates move with every trade (paper
Section 2.2); this package provides that dynamic-rate substrate.
"""

import importlib

#: Public name -> the submodule defining it, imported on first use.
_EXPORTS = {
    "DexProgram": "swap",
    "Market": "market",
    "PoolRegistry": "swap",
    "PoolSpec": "pool",
    "PriceOracle": "oracle",
    "RouteQuote": "router",
    "Router": "router",
    "min_out_with_slippage": "slippage",
    "quote_constant_product": "pool",
    "swap_instruction": "swap",
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
