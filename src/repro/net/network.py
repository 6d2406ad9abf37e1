"""The network fabric: nodes + links + gossip flooding with recovery.

Gossip is flooding with per-node duplicate suppression plus a
retransmit/backoff primitive: an attempt lost to link loss, a partition,
or an offline receiver is retried with exponential backoff, and attempts
that exhaust their retries are *parked* and revived by :meth:`Network.heal`
or :meth:`Network.kick_retries` (called when a node restarts).  This is
what lets propagation recover after a partition instead of deadlocking
on the duplicate-suppression cache.

Duplicate suppression is one :class:`FloodRecord` per gossip key — two
bitmasks over node indices, *seen* and *claimed* — created by
:meth:`Network.gossip` and carried in every scheduled hop, so a node
that has nothing left to forward finds that out with one integer test
instead of probing a cache per neighbour.

Every transmission attempt is accounted in a :class:`repro.trace.Tracer`:
it is recorded as ``schedule`` when handed to a link and resolves as
exactly one ``deliver`` or ``drop``, so completed runs satisfy
``scheduled == delivered + dropped``.

There is one delivery path.  ``gossip``, ``transmit`` and
``transmit_reliable`` all hand an attempt to the link through
:meth:`Network._attempt` and resolve its arrival through
:meth:`Network._arrive`; they differ only in what a failure triggers
(gossip: retry then park; reliable: retry then give up; plain transmit:
nothing).  Each arrival is one simulator event: a dispatch method bound
once in the constructor, called with that hop's tuple, so an arrival
costs no closure.  Arrivals at the same instant fire one by one, in
scheduling order.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.net.link import LinkParams, RetransmitPolicy
from repro.net.message import Message
from repro.net.node import NetworkNode
from repro.sim.simulator import Simulator
from repro.trace import (
    REASON_LOSS,
    REASON_OFFLINE,
    REASON_PARTITION,
    Tracer,
)


class SeenCache:
    """The order in which one node forgets gossip keys (bounded LRU).

    Whether the node *has* seen a key is a bit in that key's
    :class:`FloodRecord`; this keeps only what bounding the memory
    needs, so long runs do not grow without limit: a deque of keys,
    oldest first, and a count of *stale* slots per key.  Touching a key
    the node still remembers appends a fresh slot and marks its earlier
    one stale, so eviction pops from the left, skipping stale slots —
    least recently touched first, and a remembered key costs one deque
    slot instead of an ordered-dict entry."""

    def __init__(self, capacity: Optional[int] = 65536) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive (or None)")
        self.capacity = capacity
        self._order: Deque[object] = deque()
        self._stale: Dict[object, int] = {}
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def add(self, key: object, known: int) -> Optional[object]:
        """Remember ``key`` as the newest; ``known`` is whether the node
        remembered it already.  Returns the key this pushed out, whose
        seen bit the caller then clears."""
        self._order.append(key)
        if known:
            stale = self._stale
            stale[key] = stale.get(key, 0) + 1
            if len(self._order) > 2 * self._live:
                self._compact()
            return None
        self._live += 1
        if self.capacity is None or self._live <= self.capacity:
            return None
        while True:
            oldest = self._order.popleft()
            if not self._drop_stale(oldest):
                self._live -= 1
                return oldest

    def _drop_stale(self, key: object) -> bool:
        """Consume one stale slot of ``key``, if it has one.  A key's
        stale slots all precede its live one."""
        count = self._stale.pop(key, 0)
        if count > 1:
            self._stale[key] = count - 1
        return count > 0

    def _compact(self) -> None:
        """Drop every stale slot once they outnumber the live ones, so
        refreshes alone cannot grow the deque."""
        self._order = deque(key for key in self._order if not self._drop_stale(key))


class FloodRecord:
    """Who has one gossip key, as two bitmasks over node indices.

    ``seen`` holds the nodes that remember the key, ``claimed`` the
    nodes a delivery-or-retry chain is bringing it to — ownership, not
    scheduling, is what suppresses duplicates.  A hop in flight or on a
    retry timer holds its claim and carries the record, so it never
    looks the key up; the table drops a record once both masks are
    zero.  The masks are Python ints: past 64 nodes they simply grow.
    """

    __slots__ = ("key", "seen", "claimed")

    def __init__(self, key: object) -> None:
        self.key = key
        self.seen = 0
        self.claimed = 0


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
        # Bound once, so scheduling an arrival mints no bound-method
        # object (and a wrapper memoised per callable sees one callable).
        self._gossip_dispatch = self._deliver_gossip
        self._transmit_dispatch = self._deliver_transmit
        self._seen_cache_size = seen_cache_size
        self._nodes: Dict[str, NetworkNode] = {}
        self._links: Dict[Tuple[str, str], LinkParams] = {}
        self._neighbors: Dict[str, List[str]] = {}
        #: node id -> its bit in the flood masks (``1 << attach index``)
        self._bit: Dict[str, int] = {}
        self._neighbor_mask: Dict[str, int] = {}
        self._memory: Dict[str, SeenCache] = {}
        #: gossip key -> record, while any node remembers or is owed it
        self._floods: Dict[object, FloodRecord] = {}
        #: transmissions that exhausted retries, revived on heal/kick
        self._parked: "OrderedDict[Tuple[str, str, object], Message]" = OrderedDict()
        #: pending backoff timers, fast-forwarded on heal/kick
        self._retry_timers: Dict[Tuple[str, str, object],
                                 Tuple[object, Message, FloodRecord]] = {}
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
        self._bit[node.node_id] = 1 << len(self._bit)
        self._neighbor_mask[node.node_id] = 0
        self._memory[node.node_id] = SeenCache(self._seen_cache_size)
        node.attached(self)

    def connect(self, a: str, b: str, params: Optional[LinkParams] = None) -> None:
        """Create a bidirectional link between two nodes."""
        params = params or LinkParams()
        for src, dst in ((a, b), (b, a)):
            if src not in self._nodes or dst not in self._nodes:
                raise KeyError(f"unknown node in link {src}->{dst}")
            if (src, dst) not in self._links:
                self._neighbors[src].append(dst)
                self._neighbor_mask[src] |= self._bit[dst]
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
        for key3, (timer, message, record) in list(self._retry_timers.items()):
            src, target, _key = key3
            if dst is not None and target != dst:
                continue
            del self._retry_timers[key3]
            timer.cancel()  # type: ignore[attr-defined]
            # If another path delivered while the timer was pending,
            # ``_attempt_gossip`` releases the claim and dropping the
            # timer is the whole kick.
            self._attempt_gossip(src, target, message, record, 1)
        for (src, target, key), message in list(self._parked.items()):
            if dst is not None and target != dst:
                continue
            del self._parked[(src, target, key)]
            record = self._flood(key)
            bit = self._bit[target]
            if (record.seen | record.claimed) & bit:
                continue
            record.claimed |= bit
            self._attempt_gossip(src, target, message, record, 1)

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
                        record: FloodRecord, attempt: int) -> None:
        """A gossip attempt failed: back off and retry (the claim on
        ``dst`` stays held), or park it (the claim is released)."""
        key3 = (src, dst, record.key)
        delay = self._backoff(src, dst, message, attempt)
        if delay is None:
            self._release(record, self._bit[dst])
            self._parked[key3] = message
            return

        def retry() -> None:
            self._retry_timers.pop(key3, None)
            self._attempt_gossip(src, dst, message, record, attempt + 1)

        timer = self.simulator.schedule(delay, retry, label="retransmit")
        self._retry_timers[key3] = (timer, message, record)

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
                None, label=f"msg:{message.kind}")
        elif reliable:
            self._retry_reliable(src, dst, message, attempt)

    def _deliver_transmit(self, item: tuple) -> None:
        """Resolve one direct send's arrival: hand it to the node, or,
        when the node is offline, retry a reliable send (a plain one is
        just dropped)."""
        src, dst, message, attempt, reliable = item
        node = self._nodes[dst]
        if self._arrive(node, src, message):
            node.deliver(src, message)
        elif reliable:
            self._retry_reliable(src, dst, message, attempt)

    def gossip(self, origin: str, message: Message) -> None:
        """Flood ``message`` from ``origin`` through the whole topology."""
        record = self._flood(message.gossip_key())
        self._remember(origin, record)
        self._forward(origin, origin, message, record)

    def _flood(self, key: object) -> FloodRecord:
        """The record of ``key``, entered in the table if it is new."""
        record = self._floods.get(key)
        if record is None:
            record = self._floods[key] = FloodRecord(key)
        return record

    def _remember(self, node_id: str, record: FloodRecord) -> None:
        """``node_id`` has the message: set its seen bit, and clear the
        bit of the key its bounded memory forgot to make room."""
        bit = self._bit[node_id]
        known = record.seen & bit
        record.seen |= bit
        evicted = self._memory[node_id].add(record.key, known)
        if evicted is not None:
            forgotten = self._floods[evicted]
            forgotten.seen &= ~bit
            if not (forgotten.seen | forgotten.claimed):
                del self._floods[evicted]

    def _release(self, record: FloodRecord, bit: int) -> None:
        """End the delivery-or-retry chain that owned ``bit``."""
        record.claimed &= ~bit
        if not (record.seen | record.claimed):
            del self._floods[record.key]

    def _forward(self, node_id: str, came_from: str, message: Message,
                 record: FloodRecord) -> None:
        known = record.seen | record.claimed
        if not known:
            # The handler that just ran pushed this key out of the node's
            # memory and nothing else held the record, so the table
            # dropped it; go on with what the key maps to now, if anything.
            record = self._floods.get(record.key, record)
            known = record.seen | record.claimed
        # A peer is skipped when it already received the message or a
        # chain from another path owns it; usually that is all of them.
        todo = self._neighbor_mask[node_id] & ~(known | self._bit[came_from])
        if not todo:
            return
        bits = self._bit
        for peer in self._neighbors[node_id]:
            bit = bits[peer]
            if todo & bit:
                if not known:
                    # Only this claim holds a dropped record in the table,
                    # and a hop that parks at once drops it again.
                    self._floods[record.key] = record
                record.claimed |= bit
                self._attempt_gossip(node_id, peer, message, record, 1)

    def _attempt_gossip(self, src: str, dst: str, message: Message,
                        record: FloodRecord, attempt: int) -> None:
        bit = self._bit[dst]
        if record.seen & bit:  # another path delivered meanwhile
            self._release(record, bit)
            return
        delay = self._attempt(src, dst, message, attempt)
        if delay is None:
            self._schedule_retry(src, dst, message, record, attempt)
            return
        self.simulator.schedule_batchable(
            delay, self._gossip_dispatch, (src, dst, message, record, attempt),
            None, label=f"gossip:{message.kind}")

    def _deliver_gossip(self, item: tuple) -> None:
        """Resolve one gossip hop's arrival: deliver then forward, or
        enter the retry chain when the node is offline."""
        src, dst, message, record, attempt = item
        node = self._nodes[dst]
        if not self._arrive(node, src, message):
            self._schedule_retry(src, dst, message, record, attempt)
            return
        self._remember(dst, record)
        record.claimed &= ~self._bit[dst]  # seen now, so the record lives on
        node.deliver(src, message)
        self._forward(dst, src, message, record)

    # --------------------------------------------------------------- metrics

    def has_seen(self, node_id: str, key: object) -> bool:
        """Does ``node_id`` remember the gossip key (and so refuse it)?"""
        record = self._floods.get(key)
        return record is not None and bool(record.seen & self._bit[node_id])

    def is_claimed(self, node_id: str, key: object) -> bool:
        """Is a delivery-or-retry chain bringing ``key`` to ``node_id``?"""
        record = self._floods.get(key)
        return record is not None and bool(record.claimed & self._bit[node_id])

    def remembered(self, node_id: str) -> int:
        """How many gossip keys ``node_id`` remembers; never more than
        ``seen_cache_size``."""
        return len(self._memory[node_id])

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
