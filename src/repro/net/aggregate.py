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
from repro.net.node import NetworkNode

__all__ = [
    "AggregateCluster",
    "TopologyScale",
    "attach_clusters",
    "sample_flood_times",
    "sample_nested_flood_times",
    "exact_flood_times",
    "exact_clustered_flood_times",
    "ks_statistic",
    "validate_aggregate_model",
    "validate_nested_aggregate_model",
    "nested_consistency_at_scale",
]

#: Auto-nesting threshold: clusters at least this large are modeled as a
#: cluster-of-clusters (one gateway flood + per-sub-cluster interiors).
NESTED_AUTO_THRESHOLD = 20_000
#: Target sub-cluster size when auto-nesting picks the fanout.
NESTED_AUTO_LEAF = 10_000


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


def _retransmit_extra(
    rng: np.random.Generator,
    n: int,
    loss: float,
    base_delay_s: float = 0.5,
    multiplier: float = 2.0,
    max_delay_s: float = 30.0,
    max_attempts: int = 6,
) -> np.ndarray:
    """Vectorized extra delay from lost attempts + exponential backoff.

    Failures per hop are geometric in the link's loss probability; each
    failure adds one backoff step (deterministic schedule, one shared
    +/-25% jitter factor per hop — a cheap stand-in for the per-attempt
    jitter of :class:`~repro.net.network.RetransmitPolicy`).
    """
    if loss <= 0.0:
        return np.zeros(n)
    # rng.geometric counts trials to first success; failures = trials - 1,
    # clipped at the retry budget (beyond it the exact network parks the
    # transmission until a heal, which the aggregate tier does not model).
    failures = np.minimum(rng.geometric(1.0 - loss, size=n) - 1,
                          max_attempts - 1)
    steps = np.minimum(
        base_delay_s * multiplier ** np.arange(max_attempts - 1), max_delay_s
    )
    cumulative = np.concatenate(([0.0], np.cumsum(steps)))
    return cumulative[failures] * rng.uniform(0.75, 1.25, size=n)


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


def sample_nested_flood_times(
    count: int,
    fanout: int,
    degree: int,
    link: LinkParams,
    wire_size: int,
    rng: np.random.Generator,
    boundary_link: Optional[LinkParams] = None,
    min_leaf: int = 1_000,
) -> np.ndarray:
    """Cluster-of-clusters infection timeline: gateways, then interiors.

    The nested tier models one huge cluster as ``fanout`` sub-clusters
    joined by a gateway overlay: the message first floods the ``fanout``
    gateways (a :func:`sample_flood_times` draw over ``boundary_link``),
    then each gateway seeds its own sub-cluster interior, offset by that
    gateway's arrival.  Sub-clusters larger than ``fanout * min_leaf``
    recurse, so depth composes as ``log(fanout) + log(count / fanout) =
    log(count)`` — the same effective hop depth as a flat flood of the
    whole population, which is why the nested law stays consistent with
    the exact-validated flat law (pinned by
    :func:`nested_consistency_at_scale`).
    """
    if count <= 0:
        return np.zeros(0)
    if fanout < 2 or count <= fanout:
        return sample_flood_times(count, degree, link, wire_size, rng)
    boundary = boundary_link if boundary_link is not None else link
    gateway_degree = max(2, min(degree, fanout))
    gateways = sample_flood_times(fanout, gateway_degree, boundary,
                                  wire_size, rng)
    interior = count - fanout
    base, remainder = divmod(interior, fanout)
    parts = [gateways]
    for index in range(fanout):
        size = base + (1 if index < remainder else 0)
        if size <= 0:
            continue
        if size > fanout * min_leaf:
            sub = sample_nested_flood_times(
                size, fanout, degree, link, wire_size, rng,
                boundary_link=boundary_link, min_leaf=min_leaf)
        else:
            sub = sample_flood_times(size, degree, link, wire_size, rng)
        # Sub-cluster assignment is exchangeable, so offsetting by the
        # sorted gateway times is a pure relabeling.
        parts.append(gateways[index] + sub)
    times = np.concatenate(parts)
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
        fanout: int = 0,
        boundary_link: Optional[LinkParams] = None,
    ) -> None:
        super().__init__(node_id)
        if size <= 0:
            raise ValueError("cluster size must be positive")
        if tick_s <= 0:
            raise ValueError("tick_s must be positive")
        if fanout < 0:
            raise ValueError("fanout must be non-negative")
        self.size = size
        self.degree = degree
        self.link = link
        self.tick_s = tick_s
        #: >= 2 switches the interior to the nested cluster-of-clusters
        #: law (:func:`sample_nested_flood_times`); 0/1 keeps it flat.
        self.fanout = fanout
        self.boundary_link = boundary_link
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
        if self.fanout >= 2:
            times = arrival + sample_nested_flood_times(
                self.size, self.fanout, self.degree, self.link,
                message.wire_size, self._generator(),
                boundary_link=self.boundary_link,
            )
        else:
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
        per boundary node (flat mean-field interiors; clusters at least
        ``NESTED_AUTO_THRESHOLD`` nodes auto-switch to the nested
        cluster-of-clusters law unless ``nested_fanout`` pins it).
        Serves 10^3-10^6 with modeled propagation only.

    ``"sharded"``
        the whole deployment runs on a
        :class:`repro.net.sharded_plane.ShardedMessagePlane` — every
        gossiped protocol message is timed by an epoch-barrier crowd
        propagation over all ``total_nodes``.  Serves 10^4-10^6 with
        *real* protocol traffic (``shards`` / ``chords`` / ``jobs``
        configure the crowd).
    """

    total_nodes: int
    cluster_degree: int = 8
    tick_s: float = 0.25
    cluster_link: LinkParams = field(default_factory=lambda: WAN_LINK)
    plane: str = "aggregate"
    #: None = auto (nest clusters >= NESTED_AUTO_THRESHOLD); 0/1 = flat;
    #: >= 2 = force that fanout.
    nested_fanout: Optional[int] = None
    #: gateway-overlay link of the nested law (defaults to cluster_link)
    boundary_link: Optional[LinkParams] = None
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
        if self.nested_fanout is not None and self.nested_fanout < 0:
            raise ValueError("nested_fanout must be non-negative")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.chords < 0:
            raise ValueError("chords must be non-negative")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    def cluster_fanout(self, size: int) -> int:
        """Nested fanout an aggregate cluster of ``size`` should use."""
        if self.nested_fanout is not None:
            return self.nested_fanout if self.nested_fanout >= 2 else 0
        if size < NESTED_AUTO_THRESHOLD:
            return 0
        return max(2, min(size // NESTED_AUTO_LEAF, 64))


def attach_clusters(network, scale: TopologyScale,
                    boundary_ids: Optional[Sequence[str]] = None,
                    ) -> List[AggregateCluster]:
    """Bridge aggregate clusters onto a network's boundary nodes.

    The surplus of ``scale.total_nodes`` over the boundary ring is split
    as evenly as possible; each cluster hangs off one boundary node over
    ``scale.cluster_link``.  Returns the clusters (possibly empty when
    the boundary alone already covers ``total_nodes``).
    """
    boundary = list(boundary_ids) if boundary_ids is not None \
        else network.node_ids()
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
            fanout=scale.cluster_fanout(size),
            boundary_link=scale.boundary_link,
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
    from repro.net.network import Network
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


def exact_clustered_flood_times(
    group_count: int,
    group_size: int,
    degree: int,
    link: LinkParams,
    seed: int,
    payload_bytes: int = 256,
    boundary_link: Optional[LinkParams] = None,
) -> np.ndarray:
    """One exact flood over a real cluster-of-clusters graph.

    The ground truth of the nested law: an ingress node feeds a
    random-regular *gateway overlay* (one gateway per group, linked over
    ``boundary_link``); each gateway is a member of its own
    random-regular group interior over ``link``.  Returns the sorted
    arrival times of all ``group_count * group_size`` non-ingress nodes.
    """
    import networkx as nx

    from repro.net.network import Network
    from repro.sim.simulator import Simulator

    boundary = boundary_link if boundary_link is not None else link
    simulator = Simulator(seed=seed)
    network = Network(simulator)
    ingress = _TimeRecorder("ingress")
    network.add_node(ingress)
    gateways: List[str] = []
    recorders: List[_TimeRecorder] = []
    for g in range(group_count):
        ids = [f"g{g}:n{i}" for i in range(group_size)]
        for node_id in ids:
            node = _TimeRecorder(node_id)
            network.add_node(node)
            recorders.append(node)
        interior_degree = min(degree, group_size - 1)
        if interior_degree >= 2 and group_size > interior_degree:
            graph = nx.random_regular_graph(
                interior_degree, group_size, seed=seed * 1009 + g)
        else:
            graph = nx.complete_graph(group_size)
        for a, b in graph.edges():
            network.connect(ids[a], ids[b], link)
        gateways.append(ids[0])
    gateway_degree = min(max(2, min(degree, group_count)), group_count - 1)
    if gateway_degree >= 2 and group_count > gateway_degree:
        overlay = nx.random_regular_graph(
            gateway_degree, group_count, seed=seed * 2003)
    else:
        overlay = nx.complete_graph(group_count)
    for a, b in overlay.edges():
        network.connect(gateways[a], gateways[b], boundary)
    for gateway in gateways[:max(2, min(degree, group_count))]:
        network.connect("ingress", gateway, boundary)
    message = Message(kind="flood", payload="x" * payload_bytes,
                      size_bytes=payload_bytes)
    ingress.broadcast(message)
    simulator.run()
    times = [node.delivery_time for node in recorders
             if node.delivery_time is not None]
    return np.sort(np.asarray(times, dtype=float))


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


def validate_nested_aggregate_model(
    group_count: int = 4,
    group_size: int = 24,
    degree: int = 4,
    link: LinkParams = LinkParams(latency_s=0.05, jitter_s=0.04,
                                  bandwidth_bps=50_000_000.0),
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    payload_bytes: int = 256,
    boundary_link: Optional[LinkParams] = None,
) -> dict:
    """Nested law vs exact cluster-of-clusters floods at small N.

    The nested analogue of :func:`validate_aggregate_model`: pools exact
    clustered floods (:func:`exact_clustered_flood_times`) against the
    nested sampler with ``fanout = group_count``, same KS + moments
    report, tolerance pinned by the test suite.
    """
    wire_size = payload_bytes + MESSAGE_OVERHEAD_BYTES
    exact = np.concatenate([
        exact_clustered_flood_times(group_count, group_size, degree, link,
                                    seed, payload_bytes, boundary_link)
        for seed in seeds
    ])
    # min_leaf = group_size keeps the sampler at exactly two levels,
    # matching the two-level ground-truth graph.
    nested = np.concatenate([
        sample_nested_flood_times(
            group_count * group_size, group_count, degree, link, wire_size,
            np.random.default_rng(seed), boundary_link=boundary_link,
            min_leaf=group_size)
        for seed in seeds
    ])
    return {
        "ks": ks_statistic(exact, nested),
        "exact_mean": float(exact.mean()),
        "nested_mean": float(nested.mean()),
        "exact_p95": float(np.percentile(exact, 95)),
        "nested_p95": float(np.percentile(nested, 95)),
        "samples_per_side": int(len(exact)),
    }


def nested_consistency_at_scale(
    total: int = 100_000,
    fanout: Optional[int] = None,
    degree: int = 8,
    link: LinkParams = WAN_LINK,
    seeds: Sequence[int] = (0, 1, 2),
    payload_bytes: int = 256,
) -> dict:
    """Nested vs flat law at a scale the exact simulator cannot reach.

    The flat :func:`sample_flood_times` law is exact-validated at small
    N (:func:`validate_aggregate_model`) and scale-free in form, so at
    10^5-10^6 it serves as the reference the nested decomposition must
    reproduce — gateway depth plus sub-cluster depth must compose to the
    same timeline as one flat flood.  ``fanout=None`` uses the same
    auto rule as :meth:`TopologyScale.cluster_fanout`.
    """
    if fanout is None:
        fanout = max(2, min(total // NESTED_AUTO_LEAF, 64))
    wire_size = payload_bytes + MESSAGE_OVERHEAD_BYTES
    flat = np.concatenate([
        sample_flood_times(total, degree, link, wire_size,
                           np.random.default_rng(seed))
        for seed in seeds
    ])
    nested = np.concatenate([
        sample_nested_flood_times(total, fanout, degree, link, wire_size,
                                  np.random.default_rng(seed))
        for seed in seeds
    ])
    mean_err = abs(float(nested.mean()) - float(flat.mean())) \
        / float(flat.mean())
    return {
        "ks": ks_statistic(flat, nested),
        "flat_mean": float(flat.mean()),
        "nested_mean": float(nested.mean()),
        "mean_err": mean_err,
        "flat_p95": float(np.percentile(flat, 95)),
        "nested_p95": float(np.percentile(nested, 95)),
        "fanout": int(fanout),
        "samples_per_side": int(len(flat)),
    }
