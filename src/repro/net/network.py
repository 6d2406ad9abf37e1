"""The network fabric: nodes + links + gossip flooding with recovery.

Gossip is flooding with per-node duplicate suppression plus a
retransmit/backoff primitive: an attempt lost to link loss, a partition,
or an offline receiver is retried with exponential backoff, and attempts
that exhaust their retries are *parked* and revived by :meth:`Network.heal`
or :meth:`Network.kick_retries` (called when a node restarts).  This is
what lets propagation recover after a partition instead of deadlocking
on the duplicate-suppression cache.

Every transmission attempt is accounted in a :class:`repro.trace.Tracer`:
it is recorded as ``schedule`` when handed to a link and resolves as
exactly one ``deliver`` or ``drop``, so completed runs satisfy
``scheduled == delivered + dropped``.

There is one delivery path.  ``gossip``, ``transmit`` and
``transmit_reliable`` all hand an attempt to the link through
:meth:`Network._attempt` and resolve its arrival through
:meth:`Network._arrive`; they differ only in what a failure triggers
(gossip: retry then park; reliable: retry then give up; plain transmit:
nothing).  Arrivals are scheduled with
:meth:`~repro.sim.simulator.Simulator.schedule_batchable`, so the
same-instant arrivals at one node are drained as a single dispatch, in
scheduling order.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.net.link import LinkParams
from repro.net.message import Message
from repro.net.node import NetworkNode
from repro.sim.simulator import Simulator
from repro.trace import (
    REASON_LOSS,
    REASON_OFFLINE,
    REASON_PARTITION,
    Tracer,
)


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

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Delay before retry number ``attempt`` (1-based), jittered
        +/-25% so parked senders do not retry in lockstep."""
        delay = min(self.base_delay_s * self.multiplier ** (attempt - 1),
                    self.max_delay_s)
        return delay * rng.uniform(0.75, 1.25)


class SeenCache:
    """Bounded LRU of gossip keys — duplicate suppression without the
    unbounded `_seen` growth of long runs."""

    def __init__(self, capacity: Optional[int] = 65536) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive (or None)")
        self.capacity = capacity
        self._entries: "OrderedDict[object, None]" = OrderedDict()

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, key: object) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        self._entries[key] = None
        if self.capacity is not None and len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def discard(self, key: object) -> None:
        self._entries.pop(key, None)


class Network:
    """A set of nodes joined by directed links over a simulator.

    Gossip is implemented as flooding with per-node duplicate suppression:
    on first sight of a message a node forwards it to all neighbours
    except the one it came from.  This reproduces the propagation-delay
    distribution that drives soft-fork rates (Section IV-A) — a message
    reaches distant nodes only after several store-and-forward hops.

    This class is the *reference implementation* of the
    :class:`repro.protocol.interfaces.MessagePlane` contract: every
    golden fingerprint in the suite (E9/E14, gossip, parity matrix) is
    pinned on its exact semantics, and the scaled planes
    (:mod:`repro.net.sharded_plane`, :mod:`repro.net.aggregate`) are
    validated against it.
    """

    def __init__(
        self,
        simulator: Simulator,
        *,
        tracer: Optional[Tracer] = None,
        retransmit: Optional[RetransmitPolicy] = None,
        seen_cache_size: Optional[int] = 65536,
    ) -> None:
        self.simulator = simulator
        self.tracer = tracer if tracer is not None else Tracer()
        self.retransmit = retransmit if retransmit is not None else RetransmitPolicy()
        # Bound once: batch dispatch relies on callable identity to keep
        # heap runs with the same key mergeable (bound-method attribute
        # access would mint a fresh object per schedule).
        self._gossip_dispatch = self._deliver_gossip_batch
        self._transmit_dispatch = self._deliver_transmit_batch
        self._seen_cache_size = seen_cache_size
        self._nodes: Dict[str, NetworkNode] = {}
        self._links: Dict[Tuple[str, str], LinkParams] = {}
        self._neighbors: Dict[str, List[str]] = {}
        self._seen: Dict[str, SeenCache] = {}
        #: keys with an active delivery-or-retry chain per destination
        self._inflight: Dict[str, set] = {}
        #: transmissions that exhausted retries, revived on heal/kick
        self._parked: "OrderedDict[Tuple[str, str, object], Message]" = OrderedDict()
        #: pending backoff timers (timer, message), fast-forwarded on heal/kick
        self._retry_timers: Dict[Tuple[str, str, object], Tuple[object, Message]] = {}
        self._partitions: List[set] = []
        self._rng = simulator.fork_rng("network")
        self._retry_rng = simulator.fork_rng("network-retransmit")
        self.messages_delivered = 0
        self.messages_lost = 0
        self.bytes_transferred = 0

    # ---------------------------------------------------------------- wiring

    def add_node(self, node: NetworkNode) -> None:
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self._nodes[node.node_id] = node
        self._neighbors[node.node_id] = []
        self._seen[node.node_id] = SeenCache(self._seen_cache_size)
        self._inflight[node.node_id] = set()
        node.attached(self)

    def connect(self, a: str, b: str, params: Optional[LinkParams] = None) -> None:
        """Create a bidirectional link between two nodes."""
        params = params or LinkParams()
        for src, dst in ((a, b), (b, a)):
            if src not in self._nodes or dst not in self._nodes:
                raise KeyError(f"unknown node in link {src}->{dst}")
            if (src, dst) not in self._links:
                self._neighbors[src].append(dst)
            self._links[(src, dst)] = params

    def set_link(self, a: str, b: str, params: LinkParams,
                 bidirectional: bool = True) -> None:
        """Replace the parameters of an existing link (fault injection:
        degradation and blackhole schedules)."""
        pairs = ((a, b), (b, a)) if bidirectional else ((a, b),)
        for src, dst in pairs:
            if (src, dst) not in self._links:
                raise KeyError(f"no link {src}->{dst}")
            self._links[(src, dst)] = params

    def link_params(self, a: str, b: str) -> LinkParams:
        """Current parameters of the directed link ``a -> b``."""
        return self._links[(a, b)]

    def node(self, node_id: str) -> NetworkNode:
        return self._nodes[node_id]

    def nodes(self) -> Iterable[NetworkNode]:
        return self._nodes.values()

    def node_ids(self) -> List[str]:
        return list(self._nodes)

    def neighbors(self, node_id: str) -> List[str]:
        return list(self._neighbors[node_id])

    # ------------------------------------------------------------ partitions

    def partition(self, groups: Iterable[Iterable[str]]) -> None:
        """Split the network: traffic crosses group boundaries no more.

        Models the transient disagreement windows in which conflicting
        histories form (Section IV).  Call :meth:`heal` to reconnect.
        """
        self._partitions = [set(group) for group in groups]
        self.tracer.emit(self.simulator.now, "partition",
                         groups=[sorted(g) for g in self._partitions])

    def heal(self) -> None:
        """Reconnect all partitions and fast-forward pending/parked
        retransmissions so gossip recovers promptly.  Nodes are then
        notified (:meth:`NetworkNode.on_partition_heal`) so protocol
        stacks can revive their own parked intake artifacts."""
        self._partitions = []
        self.tracer.emit(self.simulator.now, "heal")
        self.kick_retries()
        for node in self._nodes.values():
            node.on_partition_heal()

    def _crosses_partition(self, src: str, dst: str) -> bool:
        for group in self._partitions:
            if (src in group) != (dst in group):
                return True
        return False

    # -------------------------------------------------------- retransmission

    def kick_retries(self, dst: Optional[str] = None) -> None:
        """Retry stalled transmissions now instead of at their backoff
        deadline: pending timers are fast-forwarded and parked (given-up)
        transmissions get a fresh attempt budget.  ``dst`` limits the
        kick to one destination (a node that just came back online)."""
        for key3, (timer, message) in list(self._retry_timers.items()):
            if dst is not None and key3[1] != dst:
                continue
            del self._retry_timers[key3]
            timer.cancel()  # type: ignore[attr-defined]
            src, target, key = key3
            if key in self._seen[target]:
                # Already delivered via another path while the timer was
                # pending — dropping the timer is the whole kick.  Same
                # guard as the parked pass below; ``_attempt_gossip``
                # would also bail, this just skips the dead attempt (and
                # releases the inflight claim) explicitly.
                self._inflight[target].discard(key)
                continue
            self._attempt_gossip(src, target, message, attempt=1)
        for (src, target, key), message in list(self._parked.items()):
            if dst is not None and target != dst:
                continue
            del self._parked[(src, target, key)]
            if key in self._seen[target] or key in self._inflight[target]:
                continue
            self._inflight[target].add(key)
            self._attempt_gossip(src, target, message, attempt=1)

    def _backoff(self, src: str, dst: str, message: Message,
                 attempt: int) -> Optional[float]:
        """Delay before the retry that follows failed attempt number
        ``attempt``, or ``None`` once the budget is spent (the give-up is
        then recorded)."""
        tracer = self.tracer
        if attempt >= self.retransmit.max_attempts:
            if tracer.enabled:
                tracer.record_give_up(
                    self.simulator.now, src, dst, message.kind, attempt
                )
            return None
        delay = self.retransmit.backoff(attempt, self._retry_rng)
        if tracer.enabled:
            tracer.record_retransmit(
                self.simulator.now, src, dst, message.kind, attempt, delay
            )
        return delay

    def _schedule_retry(self, src: str, dst: str, message: Message,
                        attempt: int) -> None:
        """A gossip attempt failed: back off and retry, or park it."""
        key = message.gossip_key()
        delay = self._backoff(src, dst, message, attempt)
        if delay is None:
            self._inflight[dst].discard(key)
            self._parked[(src, dst, key)] = message
            return

        def retry() -> None:
            self._retry_timers.pop((src, dst, key), None)
            if key in self._seen[dst]:  # another path delivered meanwhile
                self._inflight[dst].discard(key)
                return
            self._attempt_gossip(src, dst, message, attempt + 1)

        timer = self.simulator.schedule(delay, retry, label="retransmit")
        self._retry_timers[(src, dst, key)] = (timer, message)

    def _retry_reliable(self, src: str, dst: str, message: Message,
                        attempt: int) -> None:
        """A reliable send failed: back off and retry, or give up."""
        delay = self._backoff(src, dst, message, attempt)
        if delay is not None:
            self.simulator.schedule(
                delay,
                lambda: self._send(src, dst, message, attempt + 1, True),
                label="retransmit")

    # --------------------------------------------------------------- traffic

    def _drop(self, src: str, dst: str, message: Message, reason: str) -> None:
        self.messages_lost += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.record_drop(self.simulator.now, src, dst, message.kind,
                               reason)

    def _attempt(self, src: str, dst: str, message: Message,
                 attempt: int) -> Optional[float]:
        """Hand one transmission attempt to the link ``src -> dst``.

        Returns the link delay after which it arrives, or ``None`` when
        a partition or link loss ate it (the drop is then accounted and
        what happens next is the caller's policy)."""
        link = self._links.get((src, dst))
        if link is None:
            raise KeyError(f"no link {src}->{dst}")
        tracer = self.tracer
        if tracer.enabled:
            tracer.record_schedule(self.simulator.now, src, dst, message.kind,
                                   attempt)
        if self._crosses_partition(src, dst):
            self._drop(src, dst, message, REASON_PARTITION)
            return None
        delay = link.delivery_delay(message, self._rng)
        if delay is None:
            self._drop(src, dst, message, REASON_LOSS)
        return delay

    def _arrive(self, node: NetworkNode, src: str, message: Message) -> bool:
        """Account one arrival at ``node``: ``True`` when it counts as
        delivered (the caller hands it over), ``False`` when the node is
        offline and the attempt resolved as a drop."""
        if not node.online:
            self._drop(src, node.node_id, message, REASON_OFFLINE)
            return False
        self.messages_delivered += 1
        self.bytes_transferred += message.wire_size
        tracer = self.tracer
        if tracer.enabled:
            tracer.record_deliver(self.simulator.now, src, node.node_id,
                                  message.kind)
        return True

    def transmit(self, src: str, dst: str, message: Message) -> None:
        """Send over the direct link; silently drops on loss/partition
        (the unreliable datagram primitive — gossip adds recovery)."""
        self._send(src, dst, message, 1, False)

    def transmit_reliable(self, src: str, dst: str, message: Message) -> None:
        """Direct send with retransmit/backoff: each failed attempt is
        retried until delivery or ``retransmit.max_attempts``."""
        self._send(src, dst, message, 1, True)

    def _send(self, src: str, dst: str, message: Message, attempt: int,
              reliable: bool) -> None:
        delay = self._attempt(src, dst, message, attempt)
        if delay is not None:
            self.simulator.schedule_batchable(
                delay, self._transmit_dispatch,
                (src, dst, message, attempt, reliable),
                ("t", dst), label=f"msg:{message.kind}")
        elif reliable:
            self._retry_reliable(src, dst, message, attempt)

    def _deliver_transmit_batch(self, items: List[tuple]) -> None:
        """Dispatch the direct sends arriving at one node at one instant.

        Items come in scheduling order; a reliable send that finds the
        node offline is retried, a plain one is just dropped.  The
        survivors are handed over in one ``deliver_batch`` call.
        """
        node = self._nodes[items[0][1]]
        deliverable = []
        for src, dst, message, attempt, reliable in items:
            if self._arrive(node, src, message):
                deliverable.append((src, message))
            elif reliable:
                self._retry_reliable(src, dst, message, attempt)
        if deliverable:
            node.deliver_batch(deliverable)

    def gossip(self, origin: str, message: Message) -> None:
        """Flood ``message`` from ``origin`` through the whole topology."""
        self._seen[origin].add(message.gossip_key())
        self._forward(origin, origin, message)

    def _forward(self, node_id: str, came_from: str, message: Message) -> None:
        key = message.gossip_key()
        for peer in self._neighbors[node_id]:
            if peer == came_from:
                continue
            # A peer is skipped when it already received the message or a
            # delivery/retry chain from another path owns it — ownership,
            # not scheduling, is what suppresses duplicates now.
            if key in self._seen[peer] or key in self._inflight[peer]:
                continue
            self._inflight[peer].add(key)
            self._attempt_gossip(node_id, peer, message, attempt=1)

    def _attempt_gossip(self, src: str, dst: str, message: Message,
                        attempt: int) -> None:
        key = message.gossip_key()
        if key in self._seen[dst]:
            self._inflight[dst].discard(key)
            return
        delay = self._attempt(src, dst, message, attempt)
        if delay is None:
            self._schedule_retry(src, dst, message, attempt)
            return
        self.simulator.schedule_batchable(
            delay, self._gossip_dispatch, (src, dst, message, key, attempt),
            ("g", dst), label=f"gossip:{message.kind}")

    def _deliver_gossip_batch(self, items: List[tuple]) -> None:
        """Dispatch the gossip arriving at one node at one instant.

        Items are processed strictly in scheduling order, deliver then
        forward per message, which keeps RNG draw order (and therefore
        golden fingerprints) independent of how many arrivals share the
        instant.
        """
        dst = items[0][1]
        node = self._nodes[dst]
        seen = self._seen[dst]
        inflight = self._inflight[dst]
        for src, _dst, message, key, attempt in items:
            if not self._arrive(node, src, message):
                self._schedule_retry(src, dst, message, attempt)
                continue
            seen.add(key)
            inflight.discard(key)
            node.deliver(src, message)
            self._forward(dst, src, message)

    # --------------------------------------------------------------- metrics

    def pending_retries(self) -> int:
        """Transmissions waiting on a backoff timer or parked for heal."""
        return len(self._retry_timers) + len(self._parked)

    def traffic_stats(self) -> Dict[str, float]:
        return {
            "messages_delivered": self.messages_delivered,
            "messages_lost": self.messages_lost,
            "bytes_transferred": self.bytes_transferred,
        }

    def plane_counters(self) -> Dict[str, float]:
        """Fabric-level counters under the ``plane.*`` namespace.

        The :class:`~repro.protocol.interfaces.MessagePlane` counterpart
        of a node's ``layer_counters()``: the totals the fabric itself
        accumulates, uniform across the exact, sharded and aggregate
        implementations so monitors never switch on the concrete class.
        """
        return {
            "plane.messages_delivered": float(self.messages_delivered),
            "plane.messages_lost": float(self.messages_lost),
            "plane.bytes_transferred": float(self.bytes_transferred),
            "plane.pending_retries": float(self.pending_retries()),
        }
