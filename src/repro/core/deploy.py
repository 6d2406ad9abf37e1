"""Uniform deployment construction: one factory for every paradigm.

Each paradigm's adapter has its own constructor signature
(``BlockchainLedger(params=..., fee=...)``,
``DagLedger(representative_count=...)``), which leaves no clean slot for
an adversary mix or a scaled topology.
:func:`build_deployment` is the single entry point: pick a paradigm,
optionally a :class:`~repro.faults.ByzantineSpec`, and get
back a uniform :class:`Deployment` handle exposing the ledger, its
simulator/network machinery and the aggregated per-layer counters.  It
validates and forwards only the knobs the caller set; every default
lives in the adapter constructors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.blockchain.mempool import MempoolLimits
from repro.blockchain.params import ChainParams
from repro.core.adapters import BftLedger, BlockchainLedger, DagLedger
from repro.core.ledger import Ledger
from repro.faults import ByzantineSpec, FaultInjector
from repro.net.aggregate import TopologyScale, attach_clusters
from repro.net.link import LinkParams
from repro.protocol import aggregate_layer_counters

#: Paradigms the factory can stand up (the cross-paradigm matrix).
PARADIGMS = ("blockchain", "dag", "bft")

#: The adapter standing up each paradigm (and the home of its defaults).
_ADAPTERS = {"blockchain": BlockchainLedger, "dag": DagLedger, "bft": BftLedger}

#: Byzantine behaviours each paradigm knows how to wire.
_PARADIGM_BEHAVIORS = {
    "blockchain": ("selfish",),
    "dag": ("tip-spam",),
    "bft": ("equivocate", "withhold"),
}

#: Paradigm-specific ``build_deployment`` knobs; setting one on another
#: paradigm is an error.
_PARADIGM_KNOBS = {
    "blockchain": ("chain_params", "mempool_limits", "prune_interval_s",
                   "prune_keep_depth"),
    "dag": ("representative_count", "processing_tps", "prune_interval_s"),
    "bft": ("view_timeout_s", "max_batch", "f_override"),
}

#: Knobs whose adapter constructor keyword is spelled differently.
_CONSTRUCTOR_KEYWORD = {"chain_params": "params",
                        "f_override": "quorum_f_override"}


@dataclass
class Deployment:
    """A constructed deployment: the ledger plus uniform accessors.

    The handle is valid before ``setup`` (the ledger is constructed
    lazily-networked); ``simulator`` / ``network`` / ``nodes`` are the
    ledger's own live objects once :meth:`setup` has run.
    """

    ledger: Ledger
    paradigm: str
    byzantine: Optional[ByzantineSpec] = None
    topology_scale: Optional[TopologyScale] = None
    #: Mean-field clusters attached at setup when ``topology_scale`` asks
    #: for more nodes than the fully-simulated boundary provides.
    clusters: List = field(default_factory=list)

    def setup(self, accounts: int, initial_balance: int) -> "Deployment":
        self.ledger.setup(accounts, initial_balance)
        if (self.topology_scale is not None
                and self.topology_scale.plane == "aggregate"):
            # The sharded plane carries the whole population itself;
            # clusters only serve the aggregate plane (and zero-surplus
            # scales attach none — see attach_clusters).
            self.clusters = attach_clusters(self.network,
                                            self.topology_scale)
        return self

    # ------------------------------------------------------------ accessors

    @property
    def simulator(self):
        return self.ledger.simulator

    @property
    def network(self):
        return self.ledger.network

    @property
    def nodes(self) -> List:
        return self.ledger.nodes

    def fault_injector(self) -> FaultInjector:
        network = self.network
        if network is None:
            raise RuntimeError("setup() the deployment before injecting faults")
        return FaultInjector(network)

    def layer_counters(self) -> Dict[str, float]:
        """Deployment-wide ``transport.* / intake.* / consensus.*`` totals."""
        return aggregate_layer_counters(self.nodes)

    def scale_stats(self) -> Dict[str, float]:
        """Scaled-tier totals: modeled population and propagation.

        Always returns the full key set.  ``scaled`` is 1.0 when a
        scaled plane actually carries population (aggregate clusters or
        a sharded crowd) and 0.0 for unscaled deployments *and* for a
        ``topology_scale`` whose ``total_nodes`` equals the boundary —
        the explicit empty report for the zero-surplus case.
        """
        stats = {
            "scaled": 0.0,
            "boundary_nodes": float(len(self.nodes)),
            "modeled_nodes": 0.0,
            "modeled_deliveries": 0.0,
            "messages_modeled": 0.0,
            "propagation_max_s": 0.0,
        }
        network = self.network
        if network is not None and hasattr(network, "plane_stats"):
            stats.update(network.plane_stats())
            stats["scaled"] = 1.0 if stats["modeled_nodes"] else 0.0
            return stats
        if self.clusters:
            stats["scaled"] = 1.0
            stats["modeled_nodes"] = float(
                sum(c.size for c in self.clusters))
            stats["modeled_deliveries"] = float(
                sum(c.modeled_deliveries for c in self.clusters))
            stats["messages_modeled"] = float(
                sum(c.messages_modeled for c in self.clusters))
            times = [t for c in self.clusters for t in c.propagation_times]
            stats["propagation_max_s"] = max(times) if times else 0.0
        return stats

    def close(self) -> None:
        """No-op: no plane holds resources that outlive the deployment.

        Kept only because ``perfbench/workloads.py`` still calls it;
        delete it once that call is gone.
        """


def _given(**knobs) -> Dict[str, object]:
    """The knobs the caller actually set.  Only these travel on to the
    adapter, so every default has one home: the adapter constructor."""
    return {name: value for name, value in knobs.items() if value is not None}


def build_deployment(
    paradigm: str,
    *,
    faults: Optional[ByzantineSpec] = None,
    mempool_limits: Optional[MempoolLimits] = None,
    node_count: Optional[int] = None,
    seed: int = 0,
    link_params: Optional[LinkParams] = None,
    topology_scale: Optional[Union[int, TopologyScale]] = None,
    # paradigm-specific knobs (validated against the paradigm)
    chain_params: Optional[ChainParams] = None,
    representative_count: Optional[int] = None,
    processing_tps: Optional[float] = None,
    prune_interval_s: Optional[float] = None,
    prune_keep_depth: Optional[int] = None,
    view_timeout_s: Optional[float] = None,
    max_batch: Optional[int] = None,
) -> Deployment:
    """Construct a deployment of ``paradigm`` behind a uniform signature.

    Each paradigm runs its native consensus engine (PoW heaviest chain,
    Nano representative voting, HotStuff quorum certificates).  ``faults``
    wires a Byzantine adversary mix: the spec's ``count`` marks the roster
    prefix, ``behavior`` must belong to the paradigm's family set, and
    ``f_override`` (BFT only) adjusts the quorum threshold ``n - f``.
    ``topology_scale`` (an int total-node count or a
    :class:`~repro.net.aggregate.TopologyScale`) grows the deployment to
    that population: on the default ``plane="aggregate"`` the
    ``node_count`` fully-simulated nodes become the boundary and the
    surplus is modeled by mean-field
    :class:`~repro.net.aggregate.AggregateCluster` leaves;
    ``plane="sharded"`` instead runs the deployment's full protocol
    traffic over a
    :class:`~repro.net.sharded_plane.ShardedMessagePlane` crowd
    (blockchain/dag only).
    Unused paradigm-specific knobs raise rather than silently ignore,
    so call sites stay honest about what they configure.
    """
    if paradigm not in PARADIGMS:
        raise ValueError(f"unknown paradigm {paradigm!r} "
                         f"(choose from {', '.join(PARADIGMS)})")
    if node_count is not None and node_count < 1:
        raise ValueError(f"node_count must be at least 1 (got {node_count})")
    byzantine = faults is not None and faults.count > 0
    if byzantine and faults.behavior not in _PARADIGM_BEHAVIORS[paradigm]:
        raise ValueError(
            f"Byzantine behavior {faults.behavior!r} is not wired for "
            f"paradigm {paradigm!r} (choose from "
            f"{', '.join(_PARADIGM_BEHAVIORS[paradigm])})")
    if isinstance(topology_scale, int):
        topology_scale = TopologyScale(total_nodes=topology_scale)
    plane_factory = None
    if topology_scale is not None and topology_scale.plane == "sharded":
        if paradigm == "bft":
            raise ValueError(
                "the sharded plane carries gossip paradigms only "
                "(blockchain/dag); BFT quorum traffic is point-to-point")
        from repro.net.sharded_plane import ShardedMessagePlane

        scale = topology_scale

        def plane_factory(simulator):
            return ShardedMessagePlane(
                simulator,
                total_nodes=scale.total_nodes,
                shards=scale.shards,
                chords=scale.chords,
                link=scale.cluster_link,
            )

    knobs = _given(
        chain_params=chain_params, mempool_limits=mempool_limits,
        representative_count=representative_count,
        processing_tps=processing_tps, prune_interval_s=prune_interval_s,
        prune_keep_depth=prune_keep_depth, view_timeout_s=view_timeout_s,
        max_batch=max_batch,
        f_override=faults.f_override if faults else None)
    stray = [name for name in knobs if name not in _PARADIGM_KNOBS[paradigm]]
    if stray:
        raise ValueError(
            f"knobs {', '.join(stray)} do not apply to "
            f"paradigm {paradigm!r}")
    if byzantine:
        knobs.update(byzantine_nodes=faults.count,
                     byzantine_behavior=faults.behavior)
    knobs.update(_given(node_count=node_count, plane_factory=plane_factory))
    ledger = _ADAPTERS[paradigm](
        seed=seed, link_params=link_params,
        **{_CONSTRUCTOR_KEYWORD.get(name, name): value
           for name, value in knobs.items()})
    if (topology_scale is not None
            and topology_scale.total_nodes < ledger.node_count):
        raise ValueError(
            f"topology_scale.total_nodes ({topology_scale.total_nodes}) "
            f"is below the fully-simulated node count ({ledger.node_count})")
    return Deployment(ledger=ledger, paradigm=paradigm, byzantine=faults,
                      topology_scale=topology_scale)
