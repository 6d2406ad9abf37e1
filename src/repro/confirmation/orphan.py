"""Honest soft-fork / orphan-rate model (Section IV-A, Figure 4).

A soft fork happens "when two different blocks are created at roughly the
same time" — i.e. when a second block is found before the first finishes
propagating.  With Poisson block production at rate 1/interval and a
propagation delay D, the probability a given block gets a same-height
competitor is ``1 - exp(-D / interval)``.  This is why Bitcoin tolerates
a 10-minute interval and why shrinking the interval (or growing blocks,
which grows D) raises the stale rate.
"""

from __future__ import annotations

import math


def expected_orphan_rate(propagation_delay_s: float, block_interval_s: float) -> float:
    """Fraction of blocks expected to end up in a soft fork."""
    if propagation_delay_s < 0:
        raise ValueError("delay must be non-negative")
    if block_interval_s <= 0:
        raise ValueError("interval must be positive")
    return 1.0 - math.exp(-propagation_delay_s / block_interval_s)


def propagation_delay_for_block(
    block_size_bytes: int,
    bandwidth_bps: float,
    base_latency_s: float,
    hops: int = 3,
) -> float:
    """Crude store-and-forward model: each hop pays latency plus
    transmission time.  Bigger blocks propagate slower — the mechanism
    behind Section VI-A's centralization warning for block-size scaling."""
    if block_size_bytes < 0 or bandwidth_bps <= 0 or hops < 1:
        raise ValueError("invalid propagation parameters")
    per_hop = base_latency_s + (block_size_bytes * 8) / bandwidth_bps
    return per_hop * hops
