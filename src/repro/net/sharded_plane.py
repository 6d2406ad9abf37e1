"""The sharded message plane: full protocol traffic at 10^4-10^6 nodes.

The sharded propagation kernel (:mod:`repro.sim.sharded`) times pure
floods — one origin, one message, no protocol on top.  This module
implements the :class:`repro.protocol.interfaces.MessagePlane` contract
on top of it, so PoW/PoS and Nano deployments run *real* tx/block
gossip while the propagation fabric is a 10^4-10^6-node crowd.

The model is a hybrid:

* A handful of **boundary replicas** — the actual
  :class:`~repro.protocol.node.ProtocolNode` instances the deployment
  builds — live on an exact :class:`~repro.net.network.Network` core
  (this class subclasses it), so point-to-point sends, link faults,
  partitions and the retransmit/park/kick recovery machinery keep their
  reference semantics over the replicas' direct links.
* Every :meth:`gossip` call runs one **crowd propagation**: the message
  re-draws per-edge delays from a stream derived only from
  ``(seed, message sequence)`` (see :meth:`ShardedPropagation.reset`),
  relaxes first-arrival times across all shards in joint sweeps over one
  edge table held for the plane's lifetime, and the other replicas'
  arrival times become scheduled deliveries on the simulator.  The
  10^N - k crowd nodes are accounted as modeled deliveries, exactly
  like the aggregate tier's clusters.

Determinism: the per-message label sequence is a plain counter, the
crowd's delays are drawn from ``(seed, label, shard)``-derived streams,
and no crowd computation touches the simulator's RNG streams — so a
deployment's state digest and the plane's own :meth:`plane_fingerprint`
are a function of the seed alone.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Optional

import numpy as np

from repro.net.link import LinkParams, WAN_LINK
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import NetworkNode
from repro.sim.sharded import ShardedConfig, ShardedPropagation
from repro.sim.simulator import Simulator
from repro.trace import REASON_PARTITION

__all__ = ["ShardedMessagePlane"]


class ShardedMessagePlane(Network):
    """A :class:`Network` whose gossip fan-out is a sharded crowd.

    ``total_nodes`` is the full population; the replicas attached via
    :meth:`add_node` are embedded at evenly spaced crowd positions and
    every flood between them is timed by the crowd graph (ring +
    :class:`~repro.sim.sharded.ShardedConfig`'s default chords, per-edge
    delays following ``link``).
    Direct sends (:meth:`transmit` / :meth:`transmit_reliable`) and all
    fault machinery stay exact over the replica links.

    The crowd's shape is validated here, when the plane is built; the
    replica embedding and the crowd's edge table are built at the first
    gossip.
    """

    def __init__(
        self,
        simulator: Simulator,
        *,
        total_nodes: int,
        shards: int = 4,
        link: Optional[LinkParams] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(simulator)
        self.crowd_link = link if link is not None else WAN_LINK
        if seed is None:
            # Derived through the simulator's fork discipline so two
            # planes in one experiment (control vs treatment) decorrelate,
            # yet the crowd stays a pure function of (simulator seed,
            # construction order) — never of wall clock.
            seed = simulator.fork_rng("sharded-plane").getrandbits(48)
        self.crowd_config = ShardedConfig.with_link(
            self.crowd_link,
            total_nodes=total_nodes,
            shards=shards,
            seed=seed,
        )
        self._replica_order: List[str] = []
        self._crowd_index: Dict[str, int] = {}
        self._replica_rows: Optional[np.ndarray] = None
        self._prop: Optional[ShardedPropagation] = None
        self._msg_seq = 0
        self._crowd_fp = hashlib.sha256()
        # Crowd-side accounting (the modeled complement of traffic_stats).
        self.messages_modeled = 0
        self.modeled_deliveries = 0
        self.cross_shard_messages = 0
        self.crowd_epochs = 0
        self.propagation_max_s = 0.0
        # Bound once, like Network._gossip_dispatch: an arrival is one
        # event carrying its hop tuple, not a closure.
        self._crowd_dispatch = self._deliver_crowd

    # ---------------------------------------------------------------- wiring

    def add_node(self, node: NetworkNode) -> None:
        if self._prop is not None:
            raise RuntimeError(
                "cannot attach replicas after the crowd is built "
                "(first gossip freezes the embedding)")
        super().add_node(node)
        self._replica_order.append(node.node_id)

    def _ensure_crowd(self) -> None:
        """Freeze the replica embedding and build the crowd's edge table."""
        if self._prop is not None:
            return
        replicas = len(self._replica_order)
        if replicas == 0:
            raise RuntimeError("no replicas attached")
        total_nodes = self.crowd_config.total_nodes
        if total_nodes < replicas:
            raise ValueError(
                f"total_nodes={total_nodes} < {replicas} replicas")
        # Evenly spaced crowd positions; strictly increasing because
        # total_nodes >= replicas, so the embedding is injective.
        self._replica_rows = np.arange(replicas) * total_nodes // replicas
        self._crowd_index = dict(zip(self._replica_order,
                                     self._replica_rows.tolist()))
        # The retransmit fallback recovers a crowd delivery lost to a
        # partition/offline window over the *direct* replica link, so
        # every replica pair needs one — top up whatever topology the
        # adapter built (connect() is additive and keeps existing links).
        ids = self._replica_order
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                if (a, b) not in self._links:
                    self.connect(a, b, self.crowd_link)
        self._prop = ShardedPropagation(self.crowd_config)

    # --------------------------------------------------------------- gossip

    def gossip(self, origin: str, message: Message) -> None:
        """Flood ``message`` through the crowd from ``origin``.

        The crowd propagation yields every replica's first-arrival time;
        each becomes one scheduled delivery that resolves under the
        reference semantics (offline/partition at arrival drops and
        enters the retransmit/park chain over the direct replica link).
        """
        record = self._flood(message.gossip_key())
        self._remember(origin, record)
        self._ensure_crowd()
        label = f"msg:{self._msg_seq}"
        self._msg_seq += 1
        result = self._prop.run_with(
            self._crowd_index[origin],
            label=label,
            payload_bytes=message.size_bytes,
        )
        self._crowd_fp.update(result.fingerprint().encode())
        arrivals = result.arrivals
        reached = np.isfinite(arrivals)
        self.messages_modeled += 1
        self.modeled_deliveries += int(
            np.count_nonzero(reached)
            - np.count_nonzero(reached[self._replica_rows]))
        self.cross_shard_messages += result.cross_shard_messages
        self.crowd_epochs += result.epochs
        # The origin's own arrival (0.0) is always finite.
        self.propagation_max_s = max(self.propagation_max_s,
                                     float(arrivals[reached].max()))
        for dst, dt in zip(self._replica_order,
                           arrivals[self._replica_rows].tolist()):
            if dst == origin or not math.isfinite(dt):
                continue
            bit = self._bit[dst]
            if (record.seen | record.claimed) & bit:
                continue
            record.claimed |= bit
            if self.tracer.enabled:
                self.tracer.record_schedule(self.simulator.now, origin, dst,
                                            message.kind, 1)
            self.simulator.schedule_batchable(
                dt, self._crowd_dispatch, (origin, dst, message, record),
                None, label=f"gossip:{message.kind}")

    def _deliver_crowd(self, item: tuple) -> None:
        """One replica delivery timed by the crowd, resolved exactly.

        Same accounting as :meth:`Network._deliver_gossip` (one
        ``schedule`` resolving as ``deliver`` or ``drop``; a drop enters
        the retransmit chain over the direct replica link), except that
        the partition is checked at arrival — the crowd, not a replica
        link, carried the message — and there is no re-forward: the
        crowd already did the fan-out.
        """
        src, dst, message, record = item
        bit = self._bit[dst]
        if record.seen & bit:
            self._release(record, bit)
            return
        node = self._nodes[dst]
        if self._crosses_partition(src, dst):
            self._drop(src, dst, message, REASON_PARTITION)
        elif self._arrive(node, src, message):
            self._remember(dst, record)
            self._release(record, bit)
            node.deliver(src, message)
            return
        self._schedule_retry(src, dst, message, record, 1)

    # --------------------------------------------------------------- metrics

    def plane_fingerprint(self) -> str:
        """Digest over every crowd propagation so far.

        A pure function of (seed, replica attach order, gossip sequence,
        message sizes), pinned by parent-captured goldens in the test
        suite and in A10.
        """
        return self._crowd_fp.hexdigest()[:16]

    def plane_stats(self) -> Dict[str, float]:
        """Crowd accounting in the shape of ``Deployment.scale_stats``."""
        replicas = len(self._replica_order)
        return {
            "boundary_nodes": float(replicas),
            "modeled_nodes": float(self.crowd_config.total_nodes - replicas),
            "modeled_deliveries": float(self.modeled_deliveries),
            "messages_modeled": float(self.messages_modeled),
            "propagation_max_s": self.propagation_max_s,
        }

    def plane_counters(self) -> Dict[str, float]:
        counters = super().plane_counters()
        counters.update({
            "plane.messages_modeled": float(self.messages_modeled),
            "plane.modeled_deliveries": float(self.modeled_deliveries),
            "plane.cross_shard_messages": float(self.cross_shard_messages),
            "plane.crowd_epochs": float(self.crowd_epochs),
        })
        return counters
