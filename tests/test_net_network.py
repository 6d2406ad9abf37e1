"""Tests for repro.net (links, nodes, gossip network)."""

import random

import pytest

from repro.net.link import FAST_LINK, LinkParams
from repro.net.message import MESSAGE_OVERHEAD_BYTES, Message
from repro.net.network import Network
from repro.net.node import NetworkNode
from repro.net.topology import (
    complete_topology,
    line_topology,
    random_regular_topology,
    small_world_topology,
)
from repro.sim.simulator import Simulator


class Recorder(NetworkNode):
    """Test node that remembers everything it receives."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = []

    def handle_message(self, sender_id, message):
        self.received.append((sender_id, message.payload))


def make_message(payload="x", size=100, dedup=None):
    return Message(kind="test", payload=payload, size_bytes=size, dedup_key=dedup)


class TestLinkParams:
    def test_delay_includes_transmission(self):
        link = LinkParams(latency_s=1.0, jitter_s=0.0, bandwidth_bps=8_000.0)
        msg = make_message(size=1000 - MESSAGE_OVERHEAD_BYTES)
        delay = link.delivery_delay(msg, random.Random(0))
        assert delay == pytest.approx(1.0 + 1.0)  # 1000 B over 1 kB/s

    def test_loss(self):
        link = LinkParams(loss_probability=0.999999)
        lost = sum(
            1
            for i in range(50)
            if link.delivery_delay(make_message(), random.Random(i)) is None
        )
        assert lost == 50

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LinkParams(latency_s=-1)
        with pytest.raises(ValueError):
            LinkParams(bandwidth_bps=0)
        with pytest.raises(ValueError):
            LinkParams(loss_probability=1.5)
        with pytest.raises(ValueError):
            LinkParams(loss_probability=-0.1)

    def test_total_loss_is_a_valid_blackhole(self):
        """A 100%-loss link is a legitimate fault-injection config."""
        link = LinkParams(loss_probability=1.0)
        for i in range(20):
            assert link.delivery_delay(make_message(), random.Random(i)) is None

    def test_jitter_bounded(self):
        link = LinkParams(latency_s=1.0, jitter_s=0.5, bandwidth_bps=1e12)
        rng = random.Random(1)
        for _ in range(100):
            delay = link.delivery_delay(make_message(size=0), rng)
            assert 1.0 <= delay <= 1.5 + 1e-9


class TestDirectTransmission:
    def test_point_to_point(self):
        sim = Simulator()
        net = Network(sim)
        a, b = Recorder("a"), Recorder("b")
        net.add_node(a)
        net.add_node(b)
        net.connect("a", "b", FAST_LINK)
        a.send("b", make_message("hello"))
        sim.run()
        assert b.received == [("a", "hello")]

    def test_unknown_link_raises(self):
        sim = Simulator()
        net = Network(sim)
        net.add_node(Recorder("a"))
        net.add_node(Recorder("b"))
        with pytest.raises(KeyError):
            net.transmit("a", "b", make_message())

    def test_duplicate_node_rejected(self):
        net = Network(Simulator())
        net.add_node(Recorder("a"))
        with pytest.raises(ValueError):
            net.add_node(Recorder("a"))

    def test_offline_node_drops_traffic(self):
        sim = Simulator()
        net = Network(sim)
        a, b = Recorder("a"), Recorder("b")
        net.add_node(a)
        net.add_node(b)
        net.connect("a", "b")
        b.set_online(False)
        a.send("b", make_message())
        sim.run()
        assert b.received == []

    def test_traffic_counters(self):
        sim = Simulator()
        net = Network(sim)
        a, b = Recorder("a"), Recorder("b")
        net.add_node(a)
        net.add_node(b)
        net.connect("a", "b", FAST_LINK)
        a.send("b", make_message(size=100))
        sim.run()
        assert a.bytes_sent == 100 + MESSAGE_OVERHEAD_BYTES
        assert b.bytes_received == 100 + MESSAGE_OVERHEAD_BYTES
        assert net.messages_delivered == 1


class TestGossip:
    def test_flood_reaches_all_nodes(self):
        sim = Simulator()
        net = Network(sim)
        nodes = line_topology(net, 10, Recorder, FAST_LINK)
        nodes[0].broadcast(make_message("flood"))
        sim.run()
        for node in nodes[1:]:
            assert ("flood" in [p for _, p in node.received])

    def test_each_node_receives_once(self):
        sim = Simulator()
        net = Network(sim)
        nodes = complete_topology(net, 6, Recorder, FAST_LINK)
        nodes[0].broadcast(make_message("once"))
        sim.run()
        for node in nodes[1:]:
            assert len(node.received) == 1

    def test_dedup_key_suppresses_second_flood(self):
        from repro.common.types import Hash

        sim = Simulator()
        net = Network(sim)
        nodes = complete_topology(net, 4, Recorder, FAST_LINK)
        key = Hash(b"\x05" * 32)
        nodes[0].broadcast(make_message("first", dedup=key))
        sim.run()
        nodes[1].broadcast(make_message("second", dedup=key))
        sim.run()
        # "second" has the same gossip identity, so nobody sees it.
        for node in nodes:
            assert "second" not in [p for _, p in node.received]

    def test_propagation_takes_hops_on_a_line(self):
        sim = Simulator()
        net = Network(sim)
        link = LinkParams(latency_s=1.0, jitter_s=0.0, bandwidth_bps=1e12)
        nodes = line_topology(net, 5, Recorder, link)
        nodes[0].broadcast(make_message("hop"))
        sim.run()
        # Last node is 4 hops away at 1 s latency each.
        assert sim.now == pytest.approx(4.0, abs=0.01)


class TestPartitions:
    def test_partition_blocks_cross_traffic(self):
        sim = Simulator()
        net = Network(sim)
        nodes = complete_topology(net, 4, Recorder, FAST_LINK)
        net.partition([["n0", "n1"], ["n2", "n3"]])
        nodes[0].broadcast(make_message("partitioned"))
        sim.run()
        assert [p for _, p in nodes[1].received] == ["partitioned"]
        assert nodes[2].received == []
        assert nodes[3].received == []

    def test_heal_restores_traffic(self):
        sim = Simulator()
        net = Network(sim)
        nodes = complete_topology(net, 4, Recorder, FAST_LINK)
        net.partition([["n0", "n1"], ["n2", "n3"]])
        net.heal()
        nodes[0].broadcast(make_message("healed"))
        sim.run()
        assert all(len(n.received) == 1 for n in nodes[1:])

    def test_gossip_recovers_after_heal(self):
        """Regression: a message gossiped *during* a partition must still
        reach the far side once the partition heals — the old fabric
        marked it seen at scheduling time and never re-flooded it."""
        sim = Simulator()
        net = Network(sim)
        nodes = complete_topology(net, 4, Recorder, FAST_LINK)
        net.partition([["n0", "n1"], ["n2", "n3"]])
        nodes[0].broadcast(make_message("survivor"))
        sim.run()
        # The far side saw nothing while partitioned.
        assert nodes[2].received == [] and nodes[3].received == []
        net.heal()
        sim.run()
        for node in nodes[1:]:
            assert [p for _, p in node.received] == ["survivor"]
        # Accounting: every scheduled attempt resolved exactly once.
        assert net.tracer.in_flight == 0
        assert net.tracer.scheduled == net.tracer.delivered + net.tracer.dropped

    def test_regossip_after_heal_reaches_everyone_once(self):
        """Partition, heal, then gossip a *new* message: full delivery,
        no duplicates (the ISSUE's partition/heal/re-gossip regression)."""
        sim = Simulator()
        net = Network(sim)
        nodes = complete_topology(net, 6, Recorder, FAST_LINK)
        net.partition([["n0", "n1", "n2"], ["n3", "n4", "n5"]])
        nodes[0].broadcast(make_message("during"))
        sim.run()
        net.heal()
        nodes[3].broadcast(make_message("after"))
        sim.run()
        for node in nodes:
            payloads = [p for _, p in node.received]
            assert payloads.count("after") == (0 if node is nodes[3] else 1)
            # "during" also recovered everywhere after heal.
            expected_during = 0 if node is nodes[0] else 1
            assert payloads.count("during") == expected_during
        assert net.pending_retries() == 0

    def test_gossip_retries_through_heavy_loss(self):
        """80% per-hop loss on a line: retransmission still gets the
        message across every hop (given a budget that makes per-hop
        failure odds ~0.8^25 ≈ 4e-3)."""
        from repro.net.network import RetransmitPolicy

        sim = Simulator()
        net = Network(sim, retransmit=RetransmitPolicy(
            base_delay_s=0.05, max_delay_s=0.5, max_attempts=25))
        lossy = LinkParams(latency_s=0.01, jitter_s=0.0, bandwidth_bps=1e9,
                           loss_probability=0.8)
        nodes = line_topology(net, 4, Recorder, lossy)
        nodes[0].broadcast(make_message("persist"))
        sim.run()
        for node in nodes[1:]:
            assert [p for _, p in node.received] == ["persist"]
        assert net.tracer.retransmits > 0

    def test_offline_node_catches_up_on_restart(self):
        """Gossip parked while a node was offline is retried when it
        comes back (NetworkNode.set_online kicks the retry queue)."""
        sim = Simulator()
        net = Network(sim)
        nodes = complete_topology(net, 3, Recorder, FAST_LINK)
        nodes[2].set_online(False)
        nodes[0].broadcast(make_message("missed"))
        sim.run()
        assert nodes[2].received == []
        nodes[2].set_online(True)
        sim.run()
        assert [p for _, p in nodes[2].received] == ["missed"]

    def test_heal_kick_never_double_delivers_seen_message(self):
        """Regression: a retry timer can outlive the message it carries
        when the destination learns it out-of-band (another gossip path,
        state sync) while the timer is pending.  A heal-time
        ``kick_retries`` must drop that timer instead of re-attempting
        delivery — the retry-timer pass carries the same seen-guard as
        the parked pass, and it must also release the stale inflight
        ownership claim so future gossip of the key is not suppressed."""
        from repro.net.network import RetransmitPolicy

        sim = Simulator()
        net = Network(sim, retransmit=RetransmitPolicy(
            base_delay_s=10.0, max_delay_s=10.0, max_attempts=5))
        nodes = complete_topology(net, 2, Recorder, FAST_LINK)
        # Every a->b attempt loses, so a retry timer stays pending.
        net.set_link("n0", "n1", LinkParams(
            latency_s=0.01, jitter_s=0.0, bandwidth_bps=1e9,
            loss_probability=1.0), bidirectional=False)
        message = make_message("once")
        nodes[0].broadcast(message)
        sim.run(until=1.0)
        assert net.pending_retries() == 1
        # n1 now learns the message another way: it originates the same
        # key itself (n0 has it already, so nothing is forwarded back).
        key = message.gossip_key()
        net.gossip("n1", message)
        assert net.has_seen("n1", key)
        net.kick_retries()
        sim.run()
        # The kick dropped the dead timer: no delivery, no new retries,
        # and the inflight claim was released.
        assert nodes[1].received == []
        assert net.pending_retries() == 0
        assert not net.is_claimed("n1", key)
        assert net.tracer.in_flight == 0

    def test_seen_cache_is_bounded(self):
        sim = Simulator()
        net = Network(sim, seen_cache_size=8)
        nodes = complete_topology(net, 2, Recorder, FAST_LINK)
        for i in range(100):
            nodes[0].broadcast(make_message(f"m{i}"))
            sim.run()
        assert len(nodes[1].received) == 100
        assert net.remembered("n1") <= 8

    def test_flood_records_do_not_leak(self):
        """10 000 floods through a lossy, periodically partitioned net:
        a record lives only while a node remembers its key (at most
        ``seen_cache_size`` per node) or a hop or retry timer still owes
        it to someone — parked hops hold nothing.  Each partition spans
        fewer floods than the cache holds keys: reviving more keys at
        once than a node can remember re-floods for ever, on any
        implementation."""
        from repro.net.network import RetransmitPolicy

        sim = Simulator(seed=7)
        net = Network(sim, seen_cache_size=8, retransmit=RetransmitPolicy(
            base_delay_s=0.02, max_delay_s=0.1, max_attempts=3))
        nodes = complete_topology(net, 6, Recorder, LinkParams(
            latency_s=0.005, jitter_s=0.001, bandwidth_bps=1e9,
            loss_probability=0.05))
        ids = net.node_ids()

        def check():
            assert all(net.remembered(node_id) <= 8 for node_id in ids)
            assert all(r.seen | r.claimed for r in net._floods.values())
            owed = net.pending_retries() + net.tracer.in_flight
            assert len(net._floods) <= 8 * len(ids) + owed

        for i in range(10_000):
            if i % 500 == 100:
                net.partition([ids[:3], ids[3:]])
            elif i % 500 == 106:
                net.heal()
            nodes[i % 6].broadcast(make_message(i))
            sim.run(until=sim.now + 0.02)
            if i % 100 == 5:
                check()
        net.heal()
        sim.run(max_events=100_000)
        assert net.pending_retries() == 0 and net.tracer.in_flight == 0
        check()


class TestSeenMemory:
    """What remembering a gossip key costs the exact plane."""

    def test_bookkeeping_bytes_per_remembered_key(self):
        """An 8-node complete flood of 400 keys, no eviction: every node
        remembers every key.  The bookkeeping is each node's
        ``SeenCache`` (one 8-byte deque slot per key, in 64-slot blocks
        of 528 B) plus one ``FloodRecord`` and table entry per key
        (~90 B, shared by the 8 nodes) — about 20 B per (node, key).
        The bound is 32 B; an ordered-dict entry alone was ~80 B."""
        import inspect
        import tracemalloc

        import repro.net.network as network

        class Sink(NetworkNode):
            def handle_message(self, sender_id, message):
                pass

        nodes_n, keys_n = 8, 400
        sim = Simulator(seed=1)
        net = Network(sim)
        nodes = complete_topology(net, nodes_n, Sink, FAST_LINK)
        messages = [make_message(i) for i in range(keys_n)]
        tracemalloc.start()
        try:
            for i, message in enumerate(messages):
                nodes[i % nodes_n].broadcast(message)
            sim.run()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        # Count only the allocation sites of the bookkeeping: CPython's
        # tuple free list keeps spent hop tuples traced at their site.
        lines = set()
        for code in (network.SeenCache, network.Network._flood):
            source, start = inspect.getsourcelines(code)
            lines.update(range(start, start + len(source)))
        held = sum(
            stat.size for stat in snapshot.statistics("lineno")
            if stat.traceback[0].filename == network.__file__
            and stat.traceback[0].lineno in lines)
        assert all(net.remembered(node.node_id) == keys_n for node in nodes)
        assert len(net._floods) == keys_n
        assert held / (nodes_n * keys_n) < 32, held

    def test_refreshes_alone_do_not_grow_the_order(self):
        """A key touched again and again while remembered keeps one live
        slot; its stale slots are compacted away once they outnumber the
        live ones, and the eviction order is still least recently
        touched first."""
        from repro.net.network import SeenCache

        memory = SeenCache(capacity=3)
        assert memory.add("a", known=0) is None
        assert memory.add("b", known=0) is None
        for _ in range(1000):
            assert memory.add("a", known=1) is None
            assert len(memory._order) <= 2 * len(memory)
        assert len(memory) == 2
        assert memory.add("c", known=0) is None
        assert [memory.add(key, known=0) for key in "def"] == ["b", "a", "c"]
        assert len(memory) == 3


class TestReliableTransmit:
    def test_retries_until_delivered(self):
        sim = Simulator()
        net = Network(sim)
        a, b = Recorder("a"), Recorder("b")
        net.add_node(a)
        net.add_node(b)
        net.connect("a", "b", LinkParams(latency_s=0.01, jitter_s=0.0,
                                         bandwidth_bps=1e9,
                                         loss_probability=0.8))
        a.send_reliable("b", make_message("tenacious"))
        sim.run()
        assert [p for _, p in b.received] == ["tenacious"]

    def test_gives_up_after_attempt_budget(self):
        from repro.net.network import RetransmitPolicy

        sim = Simulator()
        net = Network(sim, retransmit=RetransmitPolicy(max_attempts=3))
        a, b = Recorder("a"), Recorder("b")
        net.add_node(a)
        net.add_node(b)
        net.connect("a", "b", LinkParams(loss_probability=1.0))
        a.send_reliable("b", make_message("doomed"))
        sim.run()
        assert b.received == []
        assert net.tracer.gave_up == 1
        assert net.tracer.scheduled == 3

    def test_offline_at_arrival_retried_delivered_once(self):
        sim = Simulator()
        net = Network(sim)
        a, b = Recorder("a"), Recorder("b")
        net.add_node(a)
        net.add_node(b)
        net.connect("a", "b", LinkParams(latency_s=0.1, jitter_s=0.0,
                                         bandwidth_bps=1e9))
        a.send_reliable("b", make_message("patient"))
        b.set_online(False)  # sent while up, arrives while down
        sim.schedule_at(2.0, lambda: b.set_online(True))
        sim.run()
        assert [p for _, p in b.received] == ["patient"]
        tracer = net.tracer
        assert tracer.drop_reasons == {"offline": tracer.dropped}
        assert tracer.dropped >= 1 and tracer.delivered == 1
        assert tracer.retransmits == tracer.dropped
        assert tracer.scheduled == tracer.delivered + tracer.dropped
        assert net.messages_lost == tracer.dropped

    def test_same_instant_plain_and_reliable_keep_order(self):
        sim = Simulator()
        net = Network(sim)
        a, b = Recorder("a"), Recorder("b")
        net.add_node(a)
        net.add_node(b)
        net.connect("a", "b", LinkParams(latency_s=0.1, jitter_s=0.0,
                                         bandwidth_bps=1e9))
        a.send("b", make_message("first"))
        a.send_reliable("b", make_message("second"))
        a.send("b", make_message("third"))
        sim.run()
        assert [p for _, p in b.received] == ["first", "second", "third"]
        assert sim.now == pytest.approx(0.1, abs=1e-3)


class TestTopologies:
    def test_complete_edge_count(self):
        net = Network(Simulator())
        complete_topology(net, 5, Recorder)
        assert all(len(net.neighbors(f"n{i}")) == 4 for i in range(5))

    def test_random_regular_degree(self):
        net = Network(Simulator())
        random_regular_topology(net, 10, 4, Recorder, seed=1)
        assert all(len(net.neighbors(f"n{i}")) == 4 for i in range(10))

    def test_random_regular_validates(self):
        with pytest.raises(ValueError):
            random_regular_topology(Network(Simulator()), 4, 4, Recorder)

    def test_small_world_connected(self):
        sim = Simulator()
        net = Network(sim)
        nodes = small_world_topology(net, 20, Recorder, link_params=FAST_LINK, seed=2)
        nodes[0].broadcast(make_message("sw"))
        sim.run()
        assert all(len(n.received) == 1 for n in nodes[1:])

    def test_complete_requires_positive_count(self):
        with pytest.raises(ValueError):
            complete_topology(Network(Simulator()), 0, Recorder)

    @pytest.mark.parametrize("build", [
        lambda net: random_regular_topology(net, 5, 3, Recorder),
        lambda net: random_regular_topology(net, 5, -1, Recorder),
        lambda net: small_world_topology(net, 3, Recorder, k=4),
        lambda net: small_world_topology(net, 0, Recorder),
        lambda net: small_world_topology(net, 10, Recorder, k=1),
        lambda net: small_world_topology(net, 10, Recorder, rewire_p=2.0),
        lambda net: small_world_topology(net, 10, Recorder, rewire_p=-0.1),
        lambda net: line_topology(net, 0, Recorder),
        lambda net: line_topology(net, -1, Recorder),
    ], ids=["regular-odd-degree-sum", "regular-negative-degree",
            "small-world-k-above-count", "small-world-empty",
            "small-world-k-below-2", "small-world-p-above-1",
            "small-world-p-below-0", "line-empty", "line-negative"])
    def test_bad_shape_is_a_value_error(self, build):
        """A shape the builder cannot make is refused as ValueError before
        any node is attached, never as a networkx error or an empty net."""
        net = Network(Simulator())
        with pytest.raises(ValueError):
            build(net)
        assert net.node_ids() == []

    @pytest.mark.parametrize("count", range(1, 10))
    def test_complete_matches_networkx(self, count):
        """networkx stays the oracle: same node order, neighbour order and
        link params as the graph built from ``nx.complete_graph``."""
        import networkx as nx

        link = LinkParams(latency_s=0.3, jitter_s=0.0, bandwidth_bps=1e6)
        ours = Network(Simulator())
        complete_topology(ours, count, Recorder, link)
        oracle = Network(Simulator())
        graph = nx.complete_graph(count)
        for index in sorted(graph.nodes()):
            oracle.add_node(Recorder(f"n{index}"))
        for a, b in graph.edges():
            oracle.connect(f"n{a}", f"n{b}", link)
        assert ours.node_ids() == oracle.node_ids()
        for node_id in oracle.node_ids():
            assert ours.neighbors(node_id) == oracle.neighbors(node_id)
            for peer in oracle.neighbors(node_id):
                assert (ours.link_params(node_id, peer)
                        == oracle.link_params(node_id, peer))
