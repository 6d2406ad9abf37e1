"""Deterministic randomness helpers.

Every stochastic component (mining, network latency, workloads, voting
timers) draws from a ``random.Random`` seeded at experiment start, so any
run is exactly reproducible from its seed.  ``fork_rng`` derives
independent child streams so that adding a new consumer does not perturb
the draws seen by existing ones.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence, TypeVar

T = TypeVar("T")


#: Attribute carrying the identity bytes child streams are derived from.
_FORK_IDENTITY_ATTR = "fork_identity"


def make_rng(seed: int) -> random.Random:
    """A fresh deterministic generator for the given integer seed.

    The generator carries a ``fork_identity`` attribute so that
    :func:`fork_rng` can derive child streams from (root seed, label)
    alone, without consuming parent state.
    """
    rng = random.Random(seed)
    setattr(rng, _FORK_IDENTITY_ATTR,
            hashlib.sha256(repr(seed).encode("utf-8")).digest())
    return rng


def fork_rng(parent: random.Random, label: str) -> random.Random:
    """Derive an independent child stream, stable under unrelated changes.

    The child seed is a hash of (parent identity, label): it does not
    consume parent state, so the order in which consumers fork — and the
    addition of new consumers — does not perturb the draws seen by
    existing ones.  Two forks with different labels are independent even
    if forked from the same parent; forking the same label twice from
    the same parent yields identical streams.

    Back-compat: a parent not created via :func:`make_rng` (a plain
    ``random.Random``) has no stable identity, so the legacy path draws
    64 bits from it — that path is fork-order dependent.
    """
    identity = getattr(parent, _FORK_IDENTITY_ATTR, None)
    if identity is None:
        identity = parent.getrandbits(64).to_bytes(8, "big")
    digest = hashlib.sha256(identity + b"/" + label.encode("utf-8")).digest()
    child = random.Random(int.from_bytes(digest[:8], "big"))
    setattr(child, _FORK_IDENTITY_ATTR, digest)
    return child


def exponential(rng: random.Random, rate: float) -> float:
    """Exponential inter-arrival sample; ``rate`` is events per unit time."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return rng.expovariate(rate)


def weighted_choice(rng: random.Random, items: Sequence[T], weights: Sequence[float]) -> T:
    """Pick one item with probability proportional to its weight.

    This is the primitive behind both the PoW lottery (weight = hash power)
    and the PoS lottery (weight = stake) of Section III.
    """
    if len(items) != len(weights):
        raise ValueError("items and weights must have equal length")
    if not items:
        raise ValueError("cannot choose from an empty sequence")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("total weight must be positive")
    point = rng.random() * total
    cumulative = 0.0
    for item, weight in zip(items, weights):
        if weight < 0:
            raise ValueError("weights must be non-negative")
        cumulative += weight
        if point < cumulative:
            return item
    return items[-1]


def zipf_weights(n: int, alpha: float) -> list:
    """Zipf popularity weights for ``n`` ranks (alpha=0 ⇒ uniform)."""
    if n <= 0:
        raise ValueError("n must be positive")
    return [1.0 / (rank**alpha) for rank in range(1, n + 1)]
