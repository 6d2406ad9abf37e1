"""Mean-field aggregate gossip tier: clusters as vectorized processes.

The exact simulator pays one event per hop per node, which caps honest
runs at a few hundred nodes.  The paper's claims, however, are about
behavior at 10^4-10^6 nodes (Section VI's Visa comparator).  This module
models a *dense cluster* of N nodes as a single :class:`AggregateCluster`
leaf process: when a gossiped message reaches the cluster's ingress, the
per-node infection delays are drawn in one numpy batch and the flood is
settled there and then: all N deliveries are credited and the slowest
delay is recorded, with no timeline held and no event scheduled.  A ring
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

with each layer's hop delays drawn by
:meth:`~repro.net.link.LinkParams.flood_delays`, the batch form of the
exact plane's :meth:`~repro.net.link.LinkParams.delivery_delay` that the
sharded crowd (:mod:`repro.sim.sharded`) draws its edge delays from too.
The ``validate_aggregate_model`` harness floods an exact small-N network
and compares propagation-time distributions by KS statistic; the pinned
tolerance lives in ``tests/test_net_aggregate.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

import numpy as np

from repro.net.link import LinkParams, WAN_LINK
from repro.net.message import MESSAGE_OVERHEAD_BYTES, Message
from repro.net.network import Network
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


def _flood_delays(
    layers: Sequence[int],
    degree: int,
    link: LinkParams,
    wire_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-node infection delays of one flood, unsorted, layer by layer.

    ``layers`` is ``hop_layers(count, degree)``; a cluster computes it
    once.  Each layer is written into its slice of one output array, and
    a node's earliest candidate parent is found one candidate column at
    a time, so no ``(size, fanout)`` float temporary is built.  Per layer
    the generator is asked for the layer's hop delays
    (:meth:`~repro.net.link.LinkParams.flood_delays`), then the parent
    picks, and a delay is ``min(parents) + hop``; the golden draw
    digests pin both orders.
    """
    delays = np.empty(sum(layers))
    parents = np.zeros(1)  # layer 0: the ingress, at t = 0
    start = 0
    for size in layers:
        hop = link.flood_delays(size, wire_size, rng)
        # Each new node is claimed by its earliest-infected neighbor in
        # the previous layer.  While the flood still grows every edge
        # claims a distinct node (one candidate parent); once the front
        # saturates, several edges race for each node and the earliest
        # wins.
        fanout = max(1, (len(parents) * (degree - 1)) // size)
        picks = rng.integers(0, len(parents), size=(size, fanout))
        layer = delays[start:start + size]
        np.take(parents, picks[:, 0], out=layer)
        for column in range(1, fanout):
            np.minimum(layer, parents[picks[:, column]], out=layer)
        layer += hop
        parents = layer
        start += size
    return delays


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
    delays = _flood_delays(hop_layers(count, degree), degree, link,
                           wire_size, rng)
    delays.sort()
    return delays


# --------------------------------------------------------------------------
# The aggregate cluster process
# --------------------------------------------------------------------------


class AggregateCluster(NetworkNode):
    """A dense cluster of ``size`` nodes modeled as one leaf process.

    Attach it to a fully-simulated boundary node: gossip flooding
    terminates at leaves, so the cluster receives each message once.
    It settles the flood on arrival: one vectorized draw of the interior
    delays credits all ``size`` deliveries and records the propagation
    time, and nothing is held or scheduled afterwards.  Sampling uses a
    numpy generator seeded from the simulator's forked stream (label
    ``aggregate:<node_id>``), so runs are seed-stable regardless of
    cluster count or attach order.
    """

    #: The interior every cluster models: a random-regular graph of this
    #: degree over WAN links.
    degree = 8
    link = WAN_LINK

    def __init__(self, node_id: str, size: int) -> None:
        super().__init__(node_id)
        if size <= 0:
            raise ValueError("cluster size must be positive")
        self.size = size
        self._layers = hop_layers(size, self.degree)
        self._rng: Optional[np.random.Generator] = None
        self._modeled: Set[object] = set()
        self.messages_modeled = 0
        self.modeled_deliveries = 0
        self.propagation_times: List[float] = []

    # ------------------------------------------------------------- plumbing

    def _generator(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = np.random.default_rng(self.network.simulator.fork_rng(
                f"aggregate:{self.node_id}").getrandbits(64))
        return self._rng

    # ------------------------------------------------------------- delivery

    def handle_message(self, sender_id: str, message: Message) -> None:
        key = message.gossip_key()
        if key in self._modeled:
            return
        self._modeled.add(key)
        arrival = self.network.simulator.now
        latest = _flood_delays(self._layers, self.degree, self.link,
                               message.wire_size, self._generator()).max()
        self.messages_modeled += 1
        self.modeled_deliveries += self.size
        # Differenced from the absolute time: the scale_stats() golden
        # pins the rounding this gives.
        self.propagation_times.append(float(arrival + latest) - arrival)

    # --------------------------------------------------------------- stats

    def stats(self) -> dict:
        propagation = self.propagation_times
        return {
            "size": self.size,
            "messages_modeled": self.messages_modeled,
            "modeled_deliveries": self.modeled_deliveries,
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
        *real* protocol traffic (``shards`` splits the crowd).

    Both planes carry the surplus over WAN links; the cluster interior
    is fixed by :class:`AggregateCluster`, the crowd graph by
    :class:`~repro.sim.sharded.ShardedConfig`'s defaults.

    ``jobs`` accepts only ``1`` and is read nowhere: the crowd's shards
    always step in process.  It stays only while
    ``perfbench/workloads.py`` still passes it.
    """

    total_nodes: int
    plane: str = "aggregate"
    shards: int = 4
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.total_nodes < 1:
            raise ValueError("total_nodes must be positive")
        if self.plane not in ("aggregate", "sharded"):
            raise ValueError("plane must be 'aggregate' or 'sharded'")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.jobs != 1:
            raise ValueError("jobs must be 1 (the shards step in process)")


def attach_clusters(network, scale: TopologyScale) -> List[AggregateCluster]:
    """Bridge aggregate clusters onto a network's boundary nodes.

    The surplus of ``scale.total_nodes`` over the boundary ring is split
    as evenly as possible; each cluster hangs off one boundary node over
    its interior's link.  Returns the clusters (possibly empty when
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
        cluster = AggregateCluster(f"agg:{boundary_id}", size)
        network.add_node(cluster)
        network.connect(boundary_id, cluster.node_id, cluster.link)
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
