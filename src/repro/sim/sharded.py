"""Sharded large-graph propagation with epoch barriers.

The second scale track (ROADMAP open item #1b): instead of one event
loop owning all 10^4-10^6 nodes, the topology is partitioned into
contiguous shards, each shard relaxes its own first-arrival times with
vectorized numpy passes, and shards exchange cross-shard arrivals only
at epoch barriers.  :class:`ShardedPropagation` runs every shard in one
process over one edge table; the results are a function of the seed
alone:

* the graph is built once from the root seed (ring + random chords) and
  stored in CSR form sorted by (head, tail), so a shard's out-edges are
  one contiguous slice and a relaxation sweep touches only the
  out-edges of the frontier, never the whole edge list;
* each shard draws its out-edge delays into its slice in one vectorized
  batch from a ``fork_rng``-derived stream (label ``shard:<index>``),
  so the draws depend only on (seed, shard index);
* one sweep relaxes every shard's frontier together: internal edges are
  applied at once, cross-shard candidates are only announced, and the
  announcements, unsplit, are the next epoch's barrier batch.  Arrivals
  are applied with a scatter-min, whose result does not depend on the
  order of its operands, so no ordering of a batch can change an
  arrival time, and the joint sweep k is the union of what each shard
  would relax alone in its own sweep k.

What runs here is the propagation kernel of the gossip fabric — a
single-source first-arrival computation whose per-edge delays are drawn
by :meth:`repro.net.link.LinkParams.flood_delays`, the one batch hop law
the aggregate tier draws from too.  ``repro.sim`` reaches into
``repro.net`` for that law and the message framing only: the link and
message modules are leaves, and the layering lint refuses the rest of
``repro.net``.  The scale bench uses the kernel to measure how
propagation times and cross-shard traffic grow with network size.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.common.rng import fork_rng, make_rng
from repro.net.link import LinkParams, WAN_LINK
from repro.net.message import MESSAGE_OVERHEAD_BYTES

__all__ = [
    "ShardedConfig",
    "ShardedResult",
    "ShardedPropagation",
    "build_edges",
]


def _np_seed(seed: int, label: str) -> int:
    """64-bit numpy seed derived via the repo's fork_rng discipline."""
    return fork_rng(make_rng(seed), label).getrandbits(64)


@dataclass(frozen=True)
class ShardedConfig:
    """One sharded propagation run, fully determined by its fields.

    The topology is a ring (guaranteed connectivity) plus ``chords``
    random matchings per node — degree ``2 + 2 * chords`` in
    expectation, the usual unstructured-overlay shape.  Every edge is a
    ``link``.
    """

    total_nodes: int
    shards: int = 4
    chords: int = 2
    epoch_s: float = 0.5
    seed: int = 0
    link: LinkParams = WAN_LINK
    payload_bytes: int = 256
    max_epochs: int = 100_000

    def __post_init__(self) -> None:
        if self.total_nodes < 2:
            raise ValueError("total_nodes must be >= 2")
        if not 1 <= self.shards <= self.total_nodes:
            raise ValueError("shards must be in [1, total_nodes]")
        if self.chords < 0:
            raise ValueError("chords must be non-negative")
        if self.epoch_s <= 0:
            raise ValueError("epoch_s must be positive")
        if self.link.loss_probability >= 1.0:
            # A geometric retransmit count cannot model a link that
            # drops everything.
            raise ValueError("link loss probability must be below 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")

    def shard_bounds(self) -> np.ndarray:
        """``shards + 1`` node boundaries: shard i owns [b[i], b[i+1])."""
        return np.arange(self.shards + 1) * self.total_nodes // self.shards


def build_edges(config: ShardedConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Directed edge arrays (heads, tails) of the overlay graph.

    Derived from the root seed alone, so every run over one config
    sees the identical graph.
    """
    n = config.total_nodes
    index = np.arange(n)
    heads = [index, index]
    tails = [(index + 1) % n, (index - 1) % n]
    rng = np.random.default_rng(_np_seed(config.seed, "sharded-graph"))
    for _ in range(config.chords):
        partner = rng.permutation(n)
        keep = partner != index  # no self-loops
        heads.extend([index[keep], partner[keep]])
        tails.extend([partner[keep], index[keep]])
    return np.concatenate(heads), np.concatenate(tails)


@dataclass
class ShardedResult:
    """Outcome of one sharded propagation run."""

    arrivals: np.ndarray
    epochs: int
    cross_shard_messages: int
    config: ShardedConfig
    _fingerprint: Optional[str] = field(default=None, repr=False)

    @property
    def reached(self) -> int:
        return int(np.count_nonzero(np.isfinite(self.arrivals)))

    def percentile(self, q: float) -> float:
        finite = self.arrivals[np.isfinite(self.arrivals)]
        if not len(finite):
            return float("nan")
        return float(np.percentile(finite, q))

    def fingerprint(self) -> str:
        """Seed-stable digest of the arrival-time vector (9 decimal
        places — well above float64 noise, well below link delays)."""
        if self._fingerprint is None:
            rounded = np.round(self.arrivals, 9)
            self._fingerprint = hashlib.sha256(
                rounded.tobytes()).hexdigest()[:16]
        return self._fingerprint


class ShardedPropagation:
    """Partitioned first-arrival propagations over one held edge table.

    Every shard's out-edges sit in one CSR over the whole node range,
    sorted by head then tail, so shard ``i``'s edges are the contiguous
    slice ``indptr[b[i]] : indptr[b[i + 1]]`` of the bounds ``b`` and
    one relaxation sweep advances every shard's frontier at once.
    """

    def __init__(self, config: ShardedConfig) -> None:
        self.config = config
        n = config.total_nodes
        bounds = config.shard_bounds()
        heads, tails = build_edges(config)
        # Deterministic edge order (head, then tail), so each shard's
        # vectorized delay draw is independent of graph-build order.
        order = np.lexsort((tails, heads))
        self.heads = heads[order]
        self.tails = tails[order]
        # CSR over that order: node v's out-edges are the slice
        # indptr[v] : indptr[v + 1].
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.heads, minlength=n), out=self.indptr[1:])
        #: ``shards + 1`` edge boundaries: shard i's out-edges are
        #: [edge_bounds[i], edge_bounds[i + 1])
        self.edge_bounds = self.indptr[bounds]
        owner = np.repeat(np.arange(config.shards), np.diff(bounds))
        #: the edge's tail lies in another shard than its head
        self.external = owner[self.heads] != owner[self.tails]
        self.weights = np.empty(len(self.heads))
        self.dist = np.empty(n)
        self.dirty = np.empty(n, dtype=bool)
        #: best arrival already announced per cross-shard edge (dedupe)
        self.announced = np.empty(len(self.heads))
        self.reset(None)

    def reset(self, label: Optional[str],
              payload_bytes: Optional[int] = None) -> None:
        """Rearm every shard for a fresh propagation labelled ``label``.

        The message plane reuses one instance for every gossiped
        message; each message re-draws shard i's per-edge delays into
        its edge slice from a stream derived only from ``(seed, label,
        i)``.  With no label the streams are the constructor's, so an
        unlabelled run on a used instance equals the same run on a fresh
        one.  A ``payload_bytes`` override retimes the serialization
        term for the actual message size.
        """
        config = self.config
        if payload_bytes is None:
            payload_bytes = config.payload_bytes
        wire_size = payload_bytes + MESSAGE_OVERHEAD_BYTES
        prefix = "" if label is None else f"{label}:"
        bounds = self.edge_bounds.tolist()
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            rng = np.random.default_rng(
                _np_seed(config.seed, f"{prefix}shard:{i}"))
            self.weights[lo:hi] = config.link.flood_delays(hi - lo,
                                                           wire_size, rng)
        self.dist.fill(np.inf)
        self.dirty.fill(False)
        self.announced.fill(np.inf)

    def step(self, times: np.ndarray, nodes: np.ndarray,
             horizon: float) -> Tuple[np.ndarray, np.ndarray, int]:
        """One epoch: apply a barrier batch, relax every shard to ``horizon``.

        Returns ``(out_times, out_nodes, pending)``: the cross-shard
        arrival candidates (the next epoch's batch) and the count of
        reached nodes still awaiting relaxation beyond the horizon.
        Shards exchange nothing inside an epoch — a candidate over an
        external edge is only announced, never applied — so sweep k here
        is the union of each shard's own sweep k.  The order of the
        batch is immaterial (scatter-min).
        """
        dist, dirty, indptr = self.dist, self.dirty, self.indptr
        self._lower(nodes, times)
        out_times: List[np.ndarray] = []
        out_nodes: List[np.ndarray] = []
        while True:
            active = np.flatnonzero(dirty & (dist < horizon))
            if not len(active):
                break
            dirty[active] = False
            # Gather the frontier's out-edges, ascending: for each active
            # node the run indptr[v] .. indptr[v + 1].
            starts = indptr[active]
            counts = indptr[active + 1] - starts
            ends = np.cumsum(counts)
            if not ends[-1]:
                continue
            edges = np.arange(ends[-1]) + np.repeat(starts - ends + counts,
                                                    counts)
            candidate = np.repeat(dist[active], counts) + self.weights[edges]
            external = self.external[edges]
            # Internal scatter-min; improved nodes go back on the front.
            internal = ~external
            self._lower(self.tails[edges[internal]], candidate[internal])
            # Cross-shard: announce only candidates that beat what this
            # edge already sent (re-announcements happen when an earlier
            # path improves retroactively).
            ext_edges = edges[external]
            ext_c = candidate[external]
            better = ext_c < self.announced[ext_edges]
            if np.any(better):
                ext_edges = ext_edges[better]
                ext_c = ext_c[better]
                self.announced[ext_edges] = ext_c
                out_times.append(ext_c)
                out_nodes.append(self.tails[ext_edges])
        pending = int(np.count_nonzero(dirty & np.isfinite(dist)))
        if out_times:
            return (np.concatenate(out_times), np.concatenate(out_nodes),
                    pending)
        return np.zeros(0), np.zeros(0, dtype=np.int64), pending

    def _lower(self, nodes: np.ndarray, times: np.ndarray) -> None:
        """Scatter-min ``times`` into ``dist``; improved nodes turn dirty.

        Scatter-min, not assignment: one batch can carry several
        candidates for the same node (one per inbound edge) and a plain
        fancy-index write would let the last — not the best — win.
        """
        if len(nodes):
            before = self.dist[nodes]
            np.minimum.at(self.dist, nodes, times)
            self.dirty[nodes[self.dist[nodes] < before]] = True

    def run_with(self, origin: int, *, label: Optional[str] = None,
                 payload_bytes: Optional[int] = None) -> ShardedResult:
        """One propagation from ``origin`` to completion.

        The instance is rearmed first (see :meth:`reset`), so one
        instance serves a whole sequence of propagations: with ``label``
        set the edge delays are re-drawn from the ``(seed, label)``-
        derived streams, without it they are the constructor's draw.
        """
        config = self.config
        if not 0 <= origin < config.total_nodes:
            raise ValueError("origin out of range")
        self.reset(label, payload_bytes)
        times = np.asarray([0.0])
        nodes = np.asarray([origin], dtype=np.int64)
        horizon = config.epoch_s
        epochs = 0
        cross = 0
        while True:
            if epochs >= config.max_epochs:
                raise RuntimeError(
                    f"no convergence after {epochs} epochs")
            # The barrier: every shard's announcements, unsplit, are the
            # next epoch's batch.
            times, nodes, pending = self.step(times, nodes, horizon)
            epochs += 1
            horizon += config.epoch_s
            cross += len(times)
            if not len(times) and pending == 0:
                break
        return ShardedResult(arrivals=self.dist.copy(), epochs=epochs,
                             cross_shard_messages=cross, config=config)
