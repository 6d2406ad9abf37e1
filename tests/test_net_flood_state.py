"""The flood's duplicate-suppression state against the implementation
it replaced.

``PerNodeFlood`` below *is* the deleted implementation — one LRU of seen
keys and one set of claimed keys per node, probed per neighbour per hop —
kept as a naive model.  Hypothesis drives it and the real
:class:`Network` (one record per key, two bitmasks) through the same
schedule of floods, faults and restarts; every delivery, trace record,
counter and RNG draw must agree, on topologies wide enough that the
masks pass 64 bits.
"""

from collections import Counter, OrderedDict

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.types import Hash
from repro.net.link import LinkParams
from repro.net.message import Message
from repro.net.network import Network, RetransmitPolicy
from repro.net.node import NetworkNode
from repro.sim.simulator import Simulator


class PerNodeFlood(Network):
    """The flood as it was: ``_seen[node]`` is an LRU of keys,
    ``_inflight[node]`` a set, and nothing rides in the payload."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._seen, self._inflight = {}, {}

    def add_node(self, node):
        super().add_node(node)
        self._seen[node.node_id] = OrderedDict()
        self._inflight[node.node_id] = set()

    def _see(self, node_id, key):
        seen = self._seen[node_id]
        seen[key] = None
        seen.move_to_end(key)
        if self._seen_cache_size is not None and len(seen) > self._seen_cache_size:
            seen.popitem(last=False)

    def gossip(self, origin, message):
        self._see(origin, message.gossip_key())
        self._forward(origin, origin, message)

    def _forward(self, node_id, came_from, message, _record=None):
        key = message.gossip_key()
        for peer in self._neighbors[node_id]:
            if (peer == came_from or key in self._seen[peer]
                    or key in self._inflight[peer]):
                continue
            self._inflight[peer].add(key)
            self._attempt_gossip(node_id, peer, message, None, 1)

    def _attempt_gossip(self, src, dst, message, _record, attempt):
        key = message.gossip_key()
        if key in self._seen[dst]:
            self._inflight[dst].discard(key)
            return
        delay = self._attempt(src, dst, message, attempt)
        if delay is None:
            self._schedule_retry(src, dst, message, None, attempt)
            return
        self.simulator.schedule_batchable(
            delay, self._gossip_dispatch, (src, dst, message, key, attempt),
            None, label=f"gossip:{message.kind}")

    def _schedule_retry(self, src, dst, message, _record, attempt):
        key = message.gossip_key()
        delay = self._backoff(src, dst, message, attempt)
        if delay is None:
            self._inflight[dst].discard(key)
            self._parked[(src, dst, key)] = message
            return

        def retry():
            self._retry_timers.pop((src, dst, key), None)
            self._attempt_gossip(src, dst, message, None, attempt + 1)

        timer = self.simulator.schedule(delay, retry, label="retransmit")
        self._retry_timers[(src, dst, key)] = (timer, message, None)

    def kick_retries(self, dst=None):
        for key3, (timer, message, _) in list(self._retry_timers.items()):
            if dst is not None and key3[1] != dst:
                continue
            del self._retry_timers[key3]
            timer.cancel()
            self._attempt_gossip(key3[0], key3[1], message, None, 1)
        for (src, target, key), message in list(self._parked.items()):
            if dst is not None and target != dst:
                continue
            del self._parked[(src, target, key)]
            if key in self._seen[target] or key in self._inflight[target]:
                continue
            self._inflight[target].add(key)
            self._attempt_gossip(src, target, message, None, 1)

    def _deliver_gossip(self, item):
        src, dst, message, key, attempt = item
        node = self._nodes[dst]
        if not self._arrive(node, src, message):
            self._schedule_retry(src, dst, message, None, attempt)
            return
        self._see(dst, key)
        self._inflight[dst].discard(key)
        node.deliver(src, message)
        self._forward(dst, src, message)

    def has_seen(self, node_id, key):
        return key in self._seen[node_id]

    def is_claimed(self, node_id, key):
        return key in self._inflight[node_id]

    def remembered(self, node_id):
        return len(self._seen[node_id])


class CheckedNetwork(Network):
    """The real plane, asserting at every arrival what the carried
    record relies on: the hop still holds its claim, and the record it
    carries is the one the table has for the key."""

    def _deliver_gossip(self, item):
        _src, dst, _message, record, _attempt = item
        assert record.claimed & self._bit[dst]
        assert self._floods[record.key] is record
        super()._deliver_gossip(item)


def remembered_keys(memory):
    """The keys a :class:`SeenCache` still remembers: its order deque
    with each key's stale copies taken out, which must leave exactly one
    live slot per key and never a stale count for an absent key."""
    slots = Counter(memory._order)
    for key, stale in memory._stale.items():
        assert slots[key] > stale, "stale count without a live slot"
        slots[key] -= stale
    assert set(slots.values()) <= {1}
    assert len(slots) == len(memory)
    return set(slots)


def assert_flood_invariants(net):
    """A record is in the table exactly while some bit of it is set; a
    node's bounded memory and its seen bits name the same keys; a retry
    timer holds its claim."""
    for key, record in net._floods.items():
        assert record.key == key
        assert record.seen | record.claimed, "dead record left in the table"
    for node_id, bit in net._bit.items():
        seen_here = {key for key, record in net._floods.items()
                     if record.seen & bit}
        assert seen_here == remembered_keys(net._memory[node_id])
        if net._seen_cache_size is not None:
            assert net.remembered(node_id) <= net._seen_cache_size
    for (_src, dst, key), (_timer, _msg, record) in net._retry_timers.items():
        assert record.claimed & net._bit[dst]
        assert net._floods[key] is record


class Chatty(NetworkNode):
    """Logs every delivery; every third node answers message ``i`` by
    originating message ``follow[i]`` — new gossip from inside a
    delivery, which is also how one key gets several origins and how a
    tiny seen cache forgets the key being forwarded."""

    def __init__(self, node_id, log, pool, follow):
        super().__init__(node_id)
        self.log, self.pool, self.follow = log, pool, follow
        self.chatty = int(node_id[1:]) % 3 == 0

    def handle_message(self, sender_id, message):
        self.log.append((self.network.simulator.now, sender_id, self.node_id,
                         message.msg_id))
        reply = self.follow.get(message.payload)
        if self.chatty and reply is not None:
            self.broadcast(self.pool[reply])


#: Events one ``advance`` may fire.  With a seen cache smaller than the
#: number of live keys a cyclic topology re-floods what it forgot, for
#: ever; the cap keeps such a storm a test of the state, not of patience.
STORM_CAP = 1500

TOPOLOGIES = {
    "line": lambda n: nx.path_graph(n),
    "ring": lambda n: nx.cycle_graph(n) if n > 2 else nx.path_graph(n),
    "small_world": lambda n: (nx.connected_watts_strogatz_graph(n, 4, 0.3, seed=n)
                              if n > 4 else nx.complete_graph(n)),
    "complete": lambda n: nx.complete_graph(n),
}


def build_world(network_class, config):
    sim = Simulator(seed=config["seed"])
    net = network_class(
        sim, seen_cache_size=config["seen_cache_size"],
        retransmit=RetransmitPolicy(base_delay_s=0.05, max_delay_s=0.4,
                                    max_attempts=config["max_attempts"]))
    log = []
    graph = TOPOLOGIES[config["topology"]](config["nodes"])
    for index in sorted(graph.nodes()):
        net.add_node(Chatty(f"n{index}", log, config["pool"], config["follow"]))
    link = LinkParams(latency_s=0.01, jitter_s=0.005, bandwidth_bps=1e9,
                      loss_probability=config["loss"])
    for a, b in graph.edges():
        net.connect(f"n{a}", f"n{b}", link)
    return sim, net, log


def apply_op(sim, net, op, config):
    kind, a, b = op
    ids = net.node_ids()
    if kind == "gossip":
        net.node(ids[a % len(ids)]).broadcast(config["pool"][b % len(config["pool"])])
    elif kind == "advance":
        sim.run(until=sim.now + 0.01 * (1 + a % 40), max_events=STORM_CAP)
    elif kind == "partition":
        cut = 1 + a % max(1, len(ids) - 1)
        net.partition([ids[:cut], ids[cut:]])
    elif kind == "heal":
        net.heal()
    elif kind == "crash":
        net.node(ids[a % len(ids)]).set_online(False)
    elif kind == "restart":  # set_online(True) calls kick_retries(dst)
        net.node(ids[a % len(ids)]).set_online(True)


def make_pool(shared_dedup):
    """Eight messages; 0/1 and 2/3 share a ``dedup_key`` (two origins,
    one key) when ``shared_dedup``; 4 -> 5 -> 6 is the reply chain."""
    def dedup(i):
        if i < 4 and shared_dedup:
            return Hash(bytes([i // 2]) * 32)
        return Hash(bytes([16 + i]) * 32) if i % 2 else None
    pool = [Message("flood", i, 64 + i, dedup(i)) for i in range(8)]
    return pool, {0: 4, 4: 5, 5: 6}


_ops = st.lists(
    st.tuples(
        st.sampled_from(["gossip", "gossip", "gossip", "advance", "advance",
                         "partition", "heal", "crash", "restart"]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=7)),
    min_size=1, max_size=24)


def run_both(config, ops):
    real = build_world(CheckedNetwork, config)
    model = build_world(PerNodeFlood, config)
    steps = list(ops) + [("heal", 0, 0)] + [
        ("restart", i, 0) for i in range(config["nodes"])]
    for op in steps:
        for sim, net, _log in (real, model):
            apply_op(sim, net, op, config)
        compare(real, model, config)
    for sim, _net, _log in (real, model):
        sim.run(until=sim.now + 60.0, max_events=4 * STORM_CAP)
    compare(real, model, config)
    return real, model


def compare(real, model, config):
    (sim, net, log), (model_sim, model_net, model_log) = real, model
    assert log == model_log
    assert sim.now == model_sim.now
    assert net.tracer.fingerprint() == model_net.tracer.fingerprint()
    assert net.traffic_stats() == model_net.traffic_stats()
    assert net.pending_retries() == model_net.pending_retries()
    assert list(net._parked) == list(model_net._parked)
    assert list(net._retry_timers) == list(model_net._retry_timers)
    assert net._rng.getstate() == model_net._rng.getstate()
    assert net._retry_rng.getstate() == model_net._retry_rng.getstate()
    for node_id in net.node_ids():
        assert net.remembered(node_id) == model_net.remembered(node_id)
        for message in config["pool"]:
            key = message.gossip_key()
            assert net.has_seen(node_id, key) == model_net.has_seen(node_id, key)
            assert (net.is_claimed(node_id, key)
                    == model_net.is_claimed(node_id, key))
    assert_flood_invariants(net)


@settings(max_examples=80, deadline=None)
@given(
    topology=st.sampled_from(sorted(TOPOLOGIES)),
    nodes=st.integers(min_value=2, max_value=70),
    loss=st.sampled_from([0.0, 0.0, 0.2, 0.6]),
    seen_cache_size=st.sampled_from([1, 4, None]),
    max_attempts=st.integers(min_value=1, max_value=3),
    shared_dedup=st.booleans(),
    seed=st.integers(min_value=0, max_value=5),
    ops=_ops,
)
def test_flood_matches_the_per_node_model(topology, nodes, loss,
                                          seen_cache_size, max_attempts,
                                          shared_dedup, seed, ops):
    if topology == "complete":
        nodes = min(nodes, 24)  # n^2 attempts per flood; 70 is pinned below
    pool, follow = make_pool(shared_dedup)
    config = dict(topology=topology, nodes=nodes, loss=loss,
                  seen_cache_size=seen_cache_size, max_attempts=max_attempts,
                  seed=seed, pool=pool, follow=follow)
    run_both(config, ops)


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("seen_cache_size", [1, 4, None])
def test_seventy_nodes_faulty_schedule(topology, seen_cache_size):
    """One fixed schedule with every kind of event, at 70 nodes (masks
    wider than a machine word) on each topology and cache bound."""
    pool, follow = make_pool(shared_dedup=True)
    config = dict(topology=topology, nodes=70, loss=0.2,
                  seen_cache_size=seen_cache_size, max_attempts=2, seed=3,
                  pool=pool, follow=follow)
    ops = [("gossip", 0, 0), ("advance", 3, 0), ("gossip", 69, 1),
           ("partition", 34, 0), ("gossip", 65, 2), ("crash", 66, 0),
           ("advance", 30, 0), ("gossip", 3, 3), ("gossip", 0, 0),
           ("advance", 39, 0), ("restart", 66, 0), ("gossip", 68, 7),
           ("heal", 0, 0), ("advance", 20, 0), ("gossip", 64, 0)]
    real, _model = run_both(config, ops)
    _sim, net, log = real
    assert any(int(dst[1:]) >= 64 for _t, _src, dst, _msg in log)
    assert any(record.seen >> 64 for record in net._floods.values())


def test_forward_survives_its_record_being_dropped_by_the_handler():
    """``seen_cache_size=1`` and a handler that originates a new key: the
    delivered key is pushed out of the node's memory before the forward
    runs.  Nobody else holds the record, so the table has dropped it —
    the forward must go on (here: to a park behind the partition), leave
    no dead record behind, and the parked hop must deliver after heal."""
    pool, follow = make_pool(shared_dedup=False)
    config = dict(topology="ring", nodes=4, loss=0.0, seen_cache_size=1,
                  max_attempts=1, seed=0, pool=pool, follow=follow)
    real = build_world(CheckedNetwork, config)
    model = build_world(PerNodeFlood, config)
    key = pool[0].gossip_key()
    # {n0, n1} | {n2, n3}; with one attempt, a hop across the cut parks
    # at once.  n1 originates 0, then 7 — forgetting 0 while n1 -> n0 is
    # in flight.  n0 (chatty) answers 0 with 4 from inside the delivery,
    # which makes n0 forget 0 as well: no seen bit, no claim.
    for op in [("partition", 1, 0), ("gossip", 1, 0), ("advance", 0, 0),
               ("gossip", 1, 7), ("advance", 5, 0)]:
        for sim, net, _log in (real, model):
            apply_op(sim, net, op, config)
        compare(real, model, config)
    _sim, net, log = real
    assert [(dst, msg) for _t, _src, dst, msg in log][0] == ("n0", pool[0].msg_id)
    assert key not in net._floods
    assert ("n0", "n3", key) in net._parked  # the forward still ran
    for op in [("heal", 0, 0), ("advance", 39, 0)]:
        for sim, net, _log in (real, model):
            apply_op(sim, net, op, config)
        compare(real, model, config)
    _sim, net, log = real
    assert {dst for _t, _src, dst, msg in log if msg == pool[0].msg_id} >= {
        "n0", "n2", "n3"}


def test_refreshing_a_remembered_key_spares_it_from_the_next_eviction():
    """``seen_cache_size=2`` on two nodes: n0 originates keys 1 and 2,
    then re-gossips 1, which it still remembers — a refresh, not a new
    key.  When key 3 arrives n0 forgets 2, while n1, which never touched
    1 again, forgets 1; the per-node model agrees at every step."""
    pool, follow = make_pool(shared_dedup=False)
    config = dict(topology="line", nodes=2, loss=0.0, seen_cache_size=2,
                  max_attempts=1, seed=0, pool=pool, follow=follow)
    ops = [("gossip", 0, 1), ("advance", 0, 0), ("gossip", 0, 2),
           ("advance", 0, 0), ("gossip", 0, 1), ("advance", 0, 0),
           ("gossip", 0, 3), ("advance", 0, 0)]
    real, model = run_both(config, ops)
    key = [message.gossip_key() for message in pool]
    for (_sim, net, _log) in (real, model):
        assert [k for k in key if net.has_seen("n0", k)] == [key[1], key[3]]
        assert [k for k in key if net.has_seen("n1", k)] == [key[2], key[3]]
