"""Point-to-point link model and the retransmit schedule that recovers loss.

Delivery time = propagation latency (base + jitter) + transmission time
(message size / bandwidth).  Loss drops a message with fixed probability,
and a lost gossip transmission is retried on :class:`RetransmitPolicy`'s
exponential backoff.  These knobs are what turn protocol parameters into
the fork rates and throughput ceilings the paper discusses.

The law has two forms: :meth:`LinkParams.delivery_delay` times one hop of
the exact plane, and :meth:`LinkParams.flood_delays` draws a whole batch
of hops for the numpy scale tier (the aggregate clusters and the sharded
crowd), with loss folded in as retransmit backoff.  numpy is imported
only inside the batch form, so the exact plane never loads it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.net.message import Message


@dataclass(frozen=True)
class RetransmitPolicy:
    """Exponential backoff for lost gossip transmissions.

    ``max_attempts`` counts the initial attempt; after it is exhausted
    the transmission is parked until the next :meth:`Network.heal` /
    :meth:`Network.kick_retries`, so a long partition does not burn an
    unbounded event budget yet still recovers.
    """

    base_delay_s: float = 0.5
    multiplier: float = 2.0
    max_delay_s: float = 30.0
    max_attempts: int = 6

    def __post_init__(self) -> None:
        if self.base_delay_s <= 0 or self.max_delay_s <= 0:
            raise ValueError("backoff delays must be positive")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def delay(self, attempt: int) -> float:
        """Un-jittered delay before retry number ``attempt`` (1-based)."""
        return min(self.base_delay_s * self.multiplier ** (attempt - 1),
                   self.max_delay_s)

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Delay before retry number ``attempt`` (1-based), jittered
        +/-25% so parked senders do not retry in lockstep."""
        return self.delay(attempt) * rng.uniform(0.75, 1.25)

    def cumulative_backoff(self) -> Tuple[float, ...]:
        """Un-jittered delay accumulated over a hop's lost attempts.

        Entry ``k`` is the sum of the first ``k`` retry delays,
        ``k = 0 .. max_attempts - 1`` (the retry budget; beyond it the
        exact network parks the transmission until a heal, which the
        scale tier does not model).
        """
        schedule = [0.0]
        for attempt in range(1, self.max_attempts):
            schedule.append(schedule[-1] + self.delay(attempt))
        return tuple(schedule)


#: The schedule of the policy every :class:`Network` runs by default,
#: the one the exact floods the scale tier is validated against
#: retransmit on.
_DEFAULT_BACKOFF_S = RetransmitPolicy().cumulative_backoff()


@dataclass(frozen=True)
class LinkParams:
    """Transmission characteristics of one directed link."""

    latency_s: float = 0.1
    jitter_s: float = 0.02
    bandwidth_bps: float = 10_000_000.0  # 10 Mbit/s consumer-grade default
    loss_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_s < 0 or self.jitter_s < 0:
            raise ValueError("latency and jitter must be non-negative")
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError("loss probability must be in [0, 1]")

    def delivery_delay(self, message: Message, rng: random.Random) -> Optional[float]:
        """Seconds until delivery, or ``None`` if the message is lost."""
        if self.loss_probability and rng.random() < self.loss_probability:
            return None
        jitter = rng.uniform(0.0, self.jitter_s) if self.jitter_s else 0.0
        transmission = (message.wire_size * 8) / self.bandwidth_bps
        return self.latency_s + jitter + transmission

    def flood_delays(self, count: int, wire_size: int, rng):
        """``count`` hop delays of a ``wire_size``-byte message, one batch.

        The vectorized form of :meth:`delivery_delay` that the scale
        tier floods with: a float array drawn from the numpy generator
        ``rng``.  A loss does not drop the hop: it extends it
        by the default :class:`RetransmitPolicy`'s backoff, the way the
        exact network's retransmits recover it.  Failures per hop are
        geometric in the loss probability, clipped at the retry budget,
        and one +/-25% factor per hop jitters the accumulated backoff.
        The generator is asked for the jitter, then the failures, then
        the backoff factors; the golden draw digests pin that order.
        """
        import numpy as np

        base = self.latency_s + (wire_size * 8.0) / self.bandwidth_bps
        if self.jitter_s:
            delays = rng.uniform(0.0, self.jitter_s, size=count)
            delays += base
        else:
            delays = np.full(count, base)
        if self.loss_probability > 0.0:
            # rng.geometric counts trials to the first success.
            failures = np.minimum(
                rng.geometric(1.0 - self.loss_probability, size=count) - 1,
                len(_DEFAULT_BACKOFF_S) - 1)
            delays += (np.asarray(_DEFAULT_BACKOFF_S)[failures]
                       * rng.uniform(0.75, 1.25, size=count))
        return delays


#: A fast LAN-like link — used to isolate protocol effects from the network.
FAST_LINK = LinkParams(latency_s=0.005, jitter_s=0.001, bandwidth_bps=1_000_000_000.0)

#: Wide-area internet link, roughly what public DLT nodes see.
WAN_LINK = LinkParams(latency_s=0.1, jitter_s=0.05, bandwidth_bps=50_000_000.0)

#: Poor consumer link — the "real world limitations" of Section VI-B.
SLOW_LINK = LinkParams(latency_s=0.3, jitter_s=0.1, bandwidth_bps=5_000_000.0)

#: A link that drops everything — fault injection's blackhole schedule.
BLACKHOLE_LINK = LinkParams(loss_probability=1.0)
