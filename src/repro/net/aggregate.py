"""Mean-field aggregate gossip tier: clusters as vectorized processes.

The exact simulator pays one event per hop per node, which caps honest
runs at a few hundred nodes.  The paper's claims, however, are about
behavior at 10^4-10^6 nodes (Section VI's Visa comparator).  This module
models a *dense cluster* of N nodes as a single :class:`AggregateCluster`
leaf process: when a gossiped message reaches the cluster's ingress, the
full per-node infection timeline is drawn in one numpy batch, and the
cluster's infection count is then advanced per event-loop tick.  A ring
of fully-simulated boundary nodes keeps protocol fidelity where it
matters; the cluster only models propagation load.

The infection model mirrors the exact gossip implementation rather than
a textbook epidemic: in :class:`~repro.net.network.Network`, duplicate
suppression is by *ownership* — the first neighbor to forward a message
claims the destination, so a node's arrival time is its earliest-infected
neighbor's arrival plus one sampled hop delay (losses extend that hop by
retransmit backoff; they do not reroute it).  Layer by layer over a
virtual random-regular interior we therefore draw

    t(child) = min(candidate parents' t) + hop_delay

with hop delays sampled from the same law as
:meth:`~repro.net.link.LinkParams.delivery_delay`.  The
``validate_aggregate_model`` harness floods an exact small-N network and
compares propagation-time distributions by KS statistic; the pinned
tolerance lives in ``tests/test_net_aggregate.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.net.link import LinkParams, WAN_LINK
from repro.net.message import MESSAGE_OVERHEAD_BYTES, Message
from repro.net.network import Network, RetransmitPolicy
from repro.net.node import NetworkNode

__all__ = [
    "AggregateCluster",
    "TopologyScale",
    "attach_clusters",
    "sample_flood_times",
    "exact_flood_times",
    "ks_statistic",
    "validate_aggregate_model",
]


# --------------------------------------------------------------------------
# Vectorized infection-timeline sampling
# --------------------------------------------------------------------------


def hop_layers(count: int, degree: int) -> List[int]:
    """Sizes of the BFS layers of a flood over a random-regular interior.

    The ingress reaches ``degree`` nodes in one hop; each of those has
    ``degree - 1`` onward edges, but in a finite graph some of them
    collide — they point at nodes another frontier edge already claimed.
    With ``a`` edges aimed uniformly at ``r`` still-uninfected nodes the
    expected fresh coverage is ``r * (1 - (1 - 1/r)^a)`` (the classic
    occupancy correction), which is what pushes the tail of a real flood
    several hops deeper than the ideal ``d * (d-1)^h`` tree.
    """
    if count <= 0:
        return []
    if degree < 2:
        raise ValueError("degree must be >= 2")
    layers: List[int] = []
    remaining = count
    size = min(degree, remaining)
    while remaining > 0:
        layers.append(size)
        remaining -= size
        if remaining <= 0:
            break
        attempts = size * (degree - 1)
        fresh = remaining * (1.0 - (1.0 - 1.0 / remaining) ** attempts)
        size = min(max(1, round(fresh)), remaining)
    return layers


def cumulative_backoff(policy: RetransmitPolicy) -> np.ndarray:
    """Un-jittered delay accumulated over a hop's lost attempts.

    Entry ``k`` is the sum of ``policy``'s first ``k`` backoff steps,
    ``k = 0 .. max_attempts - 1`` (the retry budget; beyond it the exact
    network parks the transmission until a heal, which the aggregate
    tier does not model).
    """
    steps = np.minimum(
        policy.base_delay_s
        * policy.multiplier ** np.arange(policy.max_attempts - 1),
        policy.max_delay_s,
    )
    return np.concatenate(([0.0], np.cumsum(steps)))


#: The schedule of the policy every :class:`Network` runs by default —
#: the one the exact floods this law is validated against retransmit on.
_BACKOFF_S = cumulative_backoff(RetransmitPolicy())


def _retransmit_extra(rng: np.random.Generator, n: int,
                      loss: float) -> np.ndarray:
    """Vectorized extra delay from lost attempts + exponential backoff.

    Failures per hop are geometric in the link's loss probability; each
    failure adds one backoff step (deterministic schedule, one shared
    +/-25% jitter factor per hop — a cheap stand-in for the per-attempt
    jitter of :class:`~repro.net.network.RetransmitPolicy`).
    """
    if loss <= 0.0:
        return np.zeros(n)
    # rng.geometric counts trials to first success; failures = trials - 1,
    # clipped at the retry budget.
    failures = np.minimum(rng.geometric(1.0 - loss, size=n) - 1,
                          len(_BACKOFF_S) - 1)
    return _BACKOFF_S[failures] * rng.uniform(0.75, 1.25, size=n)


def sample_flood_times(
    count: int,
    degree: int,
    link: LinkParams,
    wire_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``count`` per-node infection delays relative to ingress.

    One numpy batch replaces ``count * degree`` simulator events.  The
    returned array is sorted ascending; entry ``i`` is the time after
    cluster ingress at which the ``i+1``-th interior node has the
    message.
    """
    if count <= 0:
        return np.zeros(0)
    transmission = (wire_size * 8.0) / link.bandwidth_bps
    times = np.zeros(0)
    parents = np.zeros(1)  # layer 0: the ingress, at t = 0
    for size in hop_layers(count, degree):
        hop = np.full(size, link.latency_s + transmission)
        if link.jitter_s:
            hop += rng.uniform(0.0, link.jitter_s, size=size)
        hop += _retransmit_extra(rng, size, link.loss_probability)
        # Each new node is claimed by its earliest-infected neighbor in
        # the previous layer.  While the flood still grows every edge
        # claims a distinct node (one candidate parent); once the front
        # saturates, several edges race for each node and the earliest
        # wins.
        fanout = max(1, (len(parents) * (degree - 1)) // size)
        picks = rng.integers(0, len(parents), size=(size, fanout))
        layer = parents[picks].min(axis=1) + hop
        times = np.concatenate([times, layer])
        parents = layer
    times.sort()
    return times


# --------------------------------------------------------------------------
# The aggregate cluster process
# --------------------------------------------------------------------------


class AggregateCluster(NetworkNode):
    """A dense cluster of ``size`` nodes modeled as one leaf process.

    Attach it to a fully-simulated boundary node: gossip flooding
    terminates at leaves, so the cluster receives each message exactly
    once, draws the interior infection timeline in one vectorized batch,
    and advances its infection counter per event-loop tick.  Sampling
    uses a numpy generator seeded from the simulator's forked stream
    (label ``aggregate:<node_id>``), so runs are seed-stable regardless
    of cluster count or attach order.
    """

    def __init__(
        self,
        node_id: str,
        size: int,
        *,
        degree: int = 8,
        link: LinkParams = WAN_LINK,
        tick_s: float = 0.25,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(node_id)
        if size <= 0:
            raise ValueError("cluster size must be positive")
        if tick_s <= 0:
            raise ValueError("tick_s must be positive")
        self.size = size
        self.degree = degree
        self.link = link
        self.tick_s = tick_s
        self._seed = seed
        self._rng: Optional[np.random.Generator] = None
        #: active timelines: key -> (arrival_s, sorted times, delivered idx)
        self._active: Dict[object, list] = {}
        self._tick_task = None
        self.messages_modeled = 0
        self.messages_completed = 0
        self.modeled_deliveries = 0
        self.ticks = 0
        self.propagation_times: List[float] = []

    # ------------------------------------------------------------- plumbing

    def _generator(self) -> np.random.Generator:
        if self._rng is None:
            seed = self._seed
            if seed is None:
                if self.network is None:
                    raise RuntimeError(
                        f"cluster {self.node_id} is not attached to a network")
                seed = self.network.simulator.fork_rng(
                    f"aggregate:{self.node_id}").getrandbits(64)
            self._rng = np.random.default_rng(seed)
        return self._rng

    # ------------------------------------------------------------- delivery

    def handle_message(self, sender_id: str, message: Message) -> None:
        key = message.gossip_key()
        if key in self._active:
            return
        simulator = self.network.simulator
        arrival = simulator.now
        times = arrival + sample_flood_times(
            self.size, self.degree, self.link, message.wire_size,
            self._generator(),
        )
        self._active[key] = [arrival, times, 0]
        self.messages_modeled += 1
        if self._tick_task is None:
            self._tick_task = simulator.schedule_periodic(
                self.tick_s, self._tick)

    def _tick(self) -> None:
        now = self.network.simulator.now
        self.ticks += 1
        done = []
        for key, state in self._active.items():
            arrival, times, delivered = state
            reached = int(np.searchsorted(times, now, side="right"))
            if reached > delivered:
                self.modeled_deliveries += reached - delivered
                state[2] = reached
            if reached >= len(times):
                done.append(key)
                self.messages_completed += 1
                self.propagation_times.append(float(times[-1]) - arrival)
        for key in done:
            del self._active[key]
        if not self._active and self._tick_task is not None:
            # Detach until the next message arrives — a permanently
            # ticking cluster would keep sim.run() from ever draining.
            self._tick_task.cancel()
            self._tick_task = None

    # --------------------------------------------------------------- stats

    def infected(self, message: Message) -> int:
        """Interior nodes holding ``message`` as of the last tick."""
        state = self._active.get(message.gossip_key())
        if state is None:
            return 0
        return state[2]

    def stats(self) -> dict:
        propagation = self.propagation_times
        return {
            "size": self.size,
            "messages_modeled": self.messages_modeled,
            "messages_completed": self.messages_completed,
            "modeled_deliveries": self.modeled_deliveries,
            "ticks": self.ticks,
            "propagation_p50_s": (
                float(np.median(propagation)) if propagation else 0.0),
            "propagation_max_s": (
                float(np.max(propagation)) if propagation else 0.0),
        }


# --------------------------------------------------------------------------
# Deployment-scale wiring
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TopologyScale:
    """How far past the fully-simulated boundary a deployment scales.

    ``total_nodes`` counts boundary nodes *plus* the scaled population.
    ``plane`` picks the message-plane implementation that carries the
    surplus:

    ``"aggregate"``
        the surplus is distributed across one :class:`AggregateCluster`
        per boundary node (mean-field interiors, one infection law at
        every size).  Serves 10^3-10^6 with modeled propagation only.

    ``"sharded"``
        the whole deployment runs on a
        :class:`repro.net.sharded_plane.ShardedMessagePlane` — every
        gossiped protocol message is timed by an epoch-barrier crowd
        propagation over all ``total_nodes``.  Serves 10^4-10^6 with
        *real* protocol traffic (``shards`` / ``chords`` configure the
        crowd).

    ``jobs`` accepts only ``1`` and is read nowhere: the crowd's shards
    always step in process.  It stays only while
    ``perfbench/workloads.py`` still passes it.
    """

    total_nodes: int
    cluster_degree: int = 8
    tick_s: float = 0.25
    cluster_link: LinkParams = field(default_factory=lambda: WAN_LINK)
    plane: str = "aggregate"
    shards: int = 4
    chords: int = 2
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.total_nodes < 1:
            raise ValueError("total_nodes must be positive")
        if self.cluster_degree < 2:
            raise ValueError("cluster_degree must be >= 2")
        if self.tick_s <= 0:
            raise ValueError("tick_s must be positive")
        if self.plane not in ("aggregate", "sharded"):
            raise ValueError("plane must be 'aggregate' or 'sharded'")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.chords < 0:
            raise ValueError("chords must be non-negative")
        if self.jobs != 1:
            raise ValueError("jobs must be 1 (the shards step in process)")


def attach_clusters(network, scale: TopologyScale) -> List[AggregateCluster]:
    """Bridge aggregate clusters onto a network's boundary nodes.

    The surplus of ``scale.total_nodes`` over the boundary ring is split
    as evenly as possible; each cluster hangs off one boundary node over
    ``scale.cluster_link``.  Returns the clusters (possibly empty when
    the boundary alone already covers ``total_nodes``).
    """
    boundary = network.node_ids()
    if not boundary:
        raise ValueError("network has no boundary nodes to bridge")
    surplus = scale.total_nodes - len(boundary)
    if surplus <= 0:
        return []
    base, remainder = divmod(surplus, len(boundary))
    clusters: List[AggregateCluster] = []
    for index, boundary_id in enumerate(boundary):
        size = base + (1 if index < remainder else 0)
        if size <= 0:
            continue
        cluster = AggregateCluster(
            f"agg:{boundary_id}", size,
            degree=scale.cluster_degree,
            link=scale.cluster_link,
            tick_s=scale.tick_s,
        )
        network.add_node(cluster)
        network.connect(boundary_id, cluster.node_id, scale.cluster_link)
        clusters.append(cluster)
    return clusters


# --------------------------------------------------------------------------
# Aggregate-vs-exact validation harness
# --------------------------------------------------------------------------


class _TimeRecorder(NetworkNode):
    """Validation node: records its own delivery time."""

    def __init__(self, node_id: str) -> None:
        super().__init__(node_id)
        self.delivery_time: Optional[float] = None

    def handle_message(self, sender_id: str, message: Message) -> None:
        if self.delivery_time is None:
            self.delivery_time = self.network.simulator.now


def exact_flood_times(
    count: int,
    degree: int,
    link: LinkParams,
    seed: int,
    payload_bytes: int = 256,
) -> np.ndarray:
    """Per-node delivery times of one exact flood over ``count`` nodes.

    Builds a real random-regular network, gossips one message from node
    0 at t=0 and returns the sorted arrival times of the other
    ``count - 1`` nodes — the ground truth the aggregate model is held
    to.
    """
    from repro.net.topology import random_regular_topology
    from repro.sim.simulator import Simulator

    simulator = Simulator(seed=seed)
    network = Network(simulator)
    nodes = random_regular_topology(
        network, count, degree, _TimeRecorder, link, seed=seed)
    message = Message(kind="flood", payload="x" * payload_bytes,
                      size_bytes=payload_bytes)
    nodes[0].broadcast(message)
    simulator.run()
    times = [node.delivery_time for node in nodes[1:]
             if node.delivery_time is not None]
    return np.sort(np.asarray(times, dtype=float))


def aggregate_flood_times(
    count: int,
    degree: int,
    link: LinkParams,
    seed: int,
    payload_bytes: int = 256,
) -> np.ndarray:
    """The aggregate model's answer to :func:`exact_flood_times`."""
    wire_size = payload_bytes + MESSAGE_OVERHEAD_BYTES
    rng = np.random.default_rng(seed)
    return sample_flood_times(count - 1, degree, link, wire_size, rng)


def ks_statistic(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (max ECDF distance)."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if len(a) == 0 or len(b) == 0:
        raise ValueError("need non-empty samples")
    grid = np.concatenate([a, b])
    grid.sort()
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.abs(cdf_a - cdf_b).max())


def validate_aggregate_model(
    count: int = 24,
    degree: int = 4,
    link: LinkParams = LinkParams(latency_s=0.05, jitter_s=0.04,
                                  bandwidth_bps=50_000_000.0),
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    payload_bytes: int = 256,
) -> dict:
    """Pool exact and aggregate propagation samples over ``seeds``.

    Returns the KS statistic plus both samples' summary moments; the
    acceptance tolerance is pinned by the test suite so model drift
    fails loudly rather than silently skewing the scale benches.
    """
    exact = np.concatenate([
        exact_flood_times(count, degree, link, seed, payload_bytes)
        for seed in seeds
    ])
    aggregate = np.concatenate([
        aggregate_flood_times(count, degree, link, seed, payload_bytes)
        for seed in seeds
    ])
    return {
        "ks": ks_statistic(exact, aggregate),
        "exact_mean": float(exact.mean()),
        "aggregate_mean": float(aggregate.mean()),
        "exact_p95": float(np.percentile(exact, 95)),
        "aggregate_p95": float(np.percentile(aggregate, 95)),
        "samples_per_side": int(len(exact)),
    }
