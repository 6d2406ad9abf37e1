"""Sharded large-graph propagation with epoch barriers.

The second scale track (ROADMAP open item #1b): instead of one event
loop owning all 10^4-10^6 nodes, the topology is partitioned into
contiguous shards, each shard relaxes its own first-arrival times with
vectorized numpy passes, and shards exchange cross-shard arrivals only
at epoch barriers.  :class:`ShardedPropagation` holds one
:class:`ShardState` per shard and steps them in turn, in process; the
results are a function of the seed alone:

* the graph is built from the root seed (ring + random chords),
  identically by every shard;
* each shard draws its out-edge delays in one vectorized batch from a
  ``fork_rng``-derived stream (label ``shard:<index>``), so the draws
  depend only on (seed, shard index) — never on the stepping order;
* barrier merges gather the shards' replies in shard order and route
  them unsorted: arrivals are applied with a scatter-min, whose result
  does not depend on the order of its operands, so no ordering of a
  barrier batch can change an arrival time;
* each shard stores its out-edges in CSR form (sorted by head, one
  ``indptr`` row per owned node), so a relaxation sweep touches only
  the out-edges of the frontier it holds, never the whole edge list.

What runs here is the propagation kernel of the gossip fabric — a
single-source first-arrival computation with per-edge delays sampled
from the same law as :meth:`repro.net.link.LinkParams.delivery_delay`
(duck-typed so ``repro.sim`` stays below ``repro.net`` in the layering).
The scale bench uses it to measure how propagation times and cross-shard
traffic grow with network size.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.common.rng import fork_rng, make_rng

__all__ = [
    "ShardedConfig",
    "ShardedResult",
    "ShardState",
    "ShardedPropagation",
    "build_edges",
]

#: Mirrors Message.wire_size framing (repro.net.message).
_WIRE_OVERHEAD_BYTES = 24


def _np_seed(seed: int, label: str) -> int:
    """64-bit numpy seed derived via the repo's fork_rng discipline."""
    return fork_rng(make_rng(seed), label).getrandbits(64)


@dataclass(frozen=True)
class ShardedConfig:
    """One sharded propagation run, fully determined by its fields.

    The topology is a ring (guaranteed connectivity) plus ``chords``
    random matchings per node — degree ``2 + 2 * chords`` in
    expectation, the usual unstructured-overlay shape.  Link fields
    follow :class:`repro.net.link.LinkParams` semantics.
    """

    total_nodes: int
    shards: int = 4
    chords: int = 2
    epoch_s: float = 0.5
    seed: int = 0
    latency_s: float = 0.1
    jitter_s: float = 0.05
    bandwidth_bps: float = 50_000_000.0
    loss_probability: float = 0.0
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
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError("loss probability must be in [0, 1)")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")

    def shard_bounds(self) -> np.ndarray:
        """``shards + 1`` node boundaries: shard i owns [b[i], b[i+1])."""
        return np.arange(self.shards + 1) * self.total_nodes // self.shards

    @classmethod
    def with_link(cls, link, **kwargs) -> "ShardedConfig":
        """Build from anything exposing LinkParams' four link fields."""
        return cls(
            latency_s=link.latency_s,
            jitter_s=link.jitter_s,
            bandwidth_bps=link.bandwidth_bps,
            loss_probability=link.loss_probability,
            **kwargs,
        )


def build_edges(config: ShardedConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Directed edge arrays (heads, tails) of the overlay graph.

    Derived from the root seed alone — every shard rebuilds the
    identical graph and keeps only its own out-edges.
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


def _edge_delays(config: ShardedConfig, count: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Per-edge delivery delays following the LinkParams law.

    Loss is folded in as retransmit extension (geometric failures, the
    default :class:`repro.net.network.RetransmitPolicy` backoff
    schedule) rather than rerouting — matching how the exact network's
    ownership model behaves on a lossy link.
    """
    wire = config.payload_bytes + _WIRE_OVERHEAD_BYTES
    delays = np.full(count,
                     config.latency_s + (wire * 8.0) / config.bandwidth_bps)
    if config.jitter_s:
        delays += rng.uniform(0.0, config.jitter_s, size=count)
    loss = config.loss_probability
    if loss > 0.0:
        failures = np.minimum(rng.geometric(1.0 - loss, size=count) - 1, 5)
        steps = np.minimum(0.5 * 2.0 ** np.arange(5), 30.0)
        cumulative = np.concatenate(([0.0], np.cumsum(steps)))
        delays += cumulative[failures] * rng.uniform(0.75, 1.25, size=count)
    return delays


class ShardState:
    """One shard's slice of the propagation: owned nodes + out-edges.

    Its only cross-shard interface is :meth:`step` (epoch barrier);
    ``dist`` holds the owned nodes' first-arrival times.
    """

    def __init__(self, config: ShardedConfig, index: int) -> None:
        self.config = config
        self.index = index
        bounds = config.shard_bounds()
        self.lo = int(bounds[index])
        self.hi = int(bounds[index + 1])
        owned_nodes = self.hi - self.lo
        heads, tails = build_edges(config)
        owned = (heads >= self.lo) & (heads < self.hi)
        # Deterministic edge order (head, then tail) so the shard's
        # vectorized delay draw is independent of graph-build order.
        order = np.lexsort((tails[owned], heads[owned]))
        self.heads = heads[owned][order]
        self.tails = tails[owned][order]
        # CSR over that order: owned node v's out-edges are the slice
        # indptr[v] : indptr[v + 1].
        self.indptr = np.zeros(owned_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.heads - self.lo, minlength=owned_nodes),
                  out=self.indptr[1:])
        #: shard-local target row; meaningful for internal edges only
        self.local_tails = self.tails - self.lo
        self.external = (self.tails < self.lo) | (self.tails >= self.hi)
        self.dist = np.empty(owned_nodes)
        self.dirty = np.empty(owned_nodes, dtype=bool)
        #: best arrival already announced per cross-shard edge (dedupe)
        self.announced = np.empty(len(self.heads))
        self.reset(None)

    def step(self, times: np.ndarray, nodes: np.ndarray,
             horizon: float) -> Tuple[np.ndarray, np.ndarray, int]:
        """Apply incoming arrivals, relax internally up to ``horizon``.

        Returns ``(out_times, out_nodes, pending)`` where the out arrays
        are cross-shard arrival candidates and ``pending`` counts owned
        nodes still awaiting relaxation beyond the horizon.  The order
        of the incoming batch is immaterial (scatter-min).
        """
        dist, dirty, indptr = self.dist, self.dirty, self.indptr
        if len(nodes):
            local = np.asarray(nodes, dtype=np.int64) - self.lo
            # Scatter-min, not assignment: one barrier batch can carry
            # several candidates for the same node (one per inbound
            # cross-shard edge) and a plain fancy-index write would let
            # the last — not the best — win.
            before = dist[local]
            np.minimum.at(dist, local, np.asarray(times, dtype=float))
            dirty[local[dist[local] < before]] = True
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
            internal_t = self.local_tails[edges[internal]]
            if len(internal_t):
                before = dist[internal_t]
                np.minimum.at(dist, internal_t, candidate[internal])
                dirty[internal_t[dist[internal_t] < before]] = True
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

    def reset(self, label: Optional[str],
              payload_bytes: Optional[int] = None) -> None:
        """Rearm the shard for a fresh propagation labelled ``label``.

        The message plane reuses one set of shards for every gossiped
        message; each message re-draws its per-edge delays from a stream
        derived only from ``(seed, label, shard index)``.  With no label
        the stream is the constructor's, so an unlabelled run on used
        shards equals the same run on fresh ones.  A ``payload_bytes``
        override retimes the serialization term for the actual message
        size.
        """
        config = self.config
        if payload_bytes is not None and payload_bytes != config.payload_bytes:
            config = dataclasses.replace(config, payload_bytes=payload_bytes)
        stream = f"shard:{self.index}"
        if label is not None:
            stream = f"{label}:{stream}"
        rng = np.random.default_rng(_np_seed(config.seed, stream))
        self.weights = _edge_delays(config, len(self.heads), rng)
        self.dist.fill(np.inf)
        self.dirty.fill(False)
        self.announced.fill(np.inf)


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
    """Partitioned first-arrival propagations over held shard states."""

    def __init__(self, config: ShardedConfig) -> None:
        self.config = config
        self._uppers = config.shard_bounds()[1:]
        self._states = [ShardState(config, i) for i in range(config.shards)]

    def _owner(self, nodes: np.ndarray) -> np.ndarray:
        return np.searchsorted(self._uppers, nodes, side="right")

    def run_with(self, origin: int, *, label: Optional[str] = None,
                 payload_bytes: Optional[int] = None) -> ShardedResult:
        """One propagation from ``origin`` to completion.

        Every shard is rearmed first (see :meth:`ShardState.reset`), so
        one instance serves a whole sequence of propagations: with
        ``label`` set the edge delays are re-drawn from the
        ``(seed, label)``-derived stream, without it they are the
        constructor's draw.
        """
        config = self.config
        if not 0 <= origin < config.total_nodes:
            raise ValueError("origin out of range")
        states = self._states
        for state in states:
            state.reset(label, payload_bytes)
        shards = config.shards
        inbox_times: List[np.ndarray] = [np.zeros(0)] * shards
        inbox_nodes: List[np.ndarray] = [np.zeros(0, dtype=np.int64)] * shards
        origin_shard = int(self._owner(origin))
        inbox_times[origin_shard] = np.asarray([0.0])
        inbox_nodes[origin_shard] = np.asarray([origin], dtype=np.int64)
        horizon = config.epoch_s
        epochs = 0
        cross = 0
        while True:
            if epochs >= config.max_epochs:
                raise RuntimeError(
                    f"no convergence after {epochs} epochs")
            replies = [state.step(times, nodes, horizon)
                       for state, times, nodes
                       in zip(states, inbox_times, inbox_nodes)]
            epochs += 1
            horizon += config.epoch_s
            # Barrier merge: shard-ordered gather, routed unsorted — the
            # receiving scatter-min makes the batch order immaterial.
            all_times = np.concatenate([r[0] for r in replies])
            all_nodes = np.concatenate([r[1] for r in replies])
            pending = sum(r[2] for r in replies)
            cross += len(all_times)
            if not len(all_times) and pending == 0:
                break
            owners = self._owner(all_nodes)
            for i in range(shards):
                mine = owners == i
                inbox_times[i] = all_times[mine]
                inbox_nodes[i] = all_nodes[mine]
        arrivals = np.concatenate([state.dist for state in states])
        return ShardedResult(arrivals=arrivals, epochs=epochs,
                             cross_shard_messages=cross, config=config)
