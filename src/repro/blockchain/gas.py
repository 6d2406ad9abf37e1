"""Ethereum's gas model (Section VI-A).

"Gas is the unit used to measure the fees required for a particular
computation"; the *gas limit* bounds the total gas of a block and — unlike
Bitcoin's byte limit — adapts to network conditions.  We implement the
intrinsic-gas rule for plain transactions and the miner-driven limit
adjustment (each block may move the limit by at most parent/1024, the
geth voting rule).
"""

from __future__ import annotations

from repro.blockchain.transaction import AccountTransaction

#: Intrinsic gas of a plain value transfer.
TX_BASE_GAS = 21_000
#: Gas per non-zero byte of transaction data.
DATA_NONZERO_GAS = 68
#: Gas per zero byte of transaction data.
DATA_ZERO_GAS = 4
#: Largest relative step the gas limit may take per block: parent // 1024.
GAS_LIMIT_BOUND_DIVISOR = 1024
#: Gas limit never falls below this floor.
MIN_GAS_LIMIT = 5_000


def intrinsic_gas(tx: AccountTransaction) -> int:
    """Gas consumed before any execution: base cost plus data bytes."""
    zero_bytes = tx.data.count(0)
    nonzero_bytes = len(tx.data) - zero_bytes
    return TX_BASE_GAS + zero_bytes * DATA_ZERO_GAS + nonzero_bytes * DATA_NONZERO_GAS


def adjust_gas_limit(parent_limit: int, parent_gas_used: int, desired_limit: int) -> int:
    """Next block's gas limit under the miner-voting rule.

    Miners nudge the limit toward ``desired_limit`` but each step is
    clamped to ``parent_limit // 1024`` — this is the mechanism that makes
    Ethereum's capacity "dynamic and adapt to network conditions".
    ``parent_gas_used`` is accepted for signature parity with clients that
    target 1.5x parent usage when no explicit desire is configured.
    """
    if parent_limit < MIN_GAS_LIMIT:
        raise ValueError(f"parent gas limit {parent_limit} below protocol minimum")
    max_step = max(parent_limit // GAS_LIMIT_BOUND_DIVISOR, 1)
    if desired_limit > parent_limit:
        new_limit = min(desired_limit, parent_limit + max_step)
    else:
        new_limit = max(desired_limit, parent_limit - max_step)
    return max(new_limit, MIN_GAS_LIMIT)
