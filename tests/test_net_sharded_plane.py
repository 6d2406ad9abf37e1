"""Tests for the sharded message plane (repro.net.sharded_plane).

The plane's contract has three load-bearing pieces: it satisfies the
:class:`~repro.protocol.interfaces.MessagePlane` seam (so protocol code
cannot tell it from the exact :class:`Network`), every broadcast is
timed by an epoch-barrier crowd propagation over the whole modeled
population, and the crowd fingerprint is a function of the seed alone
(pinned to a parent-captured golden).
"""

import pytest

from repro.core.deploy import build_deployment
from repro.net.aggregate import TopologyScale
from repro.net.link import FAST_LINK
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import NetworkNode
from repro.net.sharded_plane import ShardedMessagePlane
from repro.net.topology import complete_topology
from repro.protocol.interfaces import MessagePlane
from repro.sim.simulator import Simulator
from repro.workloads.generators import PaymentEvent


def make_message(payload="x", size=100):
    return Message(kind="test", payload=payload, size_bytes=size)


class Recorder(NetworkNode):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = []

    def handle_message(self, sender_id, message):
        self.received.append((sender_id, message.payload))


def build_plane(total_nodes=100, shards=2, seed=11, replicas=4):
    sim = Simulator(seed=1)
    net = ShardedMessagePlane(sim, total_nodes=total_nodes, shards=shards,
                              seed=seed, link=FAST_LINK)
    nodes = complete_topology(net, replicas, Recorder, FAST_LINK)
    return sim, net, nodes


class TestMessagePlaneContract:
    def test_exact_network_is_the_reference_implementation(self):
        assert isinstance(Network(Simulator(seed=0)), MessagePlane)

    def test_sharded_plane_satisfies_the_interface(self):
        sim, net, nodes = build_plane()
        assert isinstance(net, MessagePlane)

    def test_plane_counters_extend_reference_counters(self):
        sim, net, nodes = build_plane()
        nodes[0].broadcast(make_message("a"))
        sim.run()
        counters = net.plane_counters()
        for key in ("plane.messages_delivered", "plane.messages_lost",
                    "plane.bytes_transferred", "plane.pending_retries",
                    "plane.messages_modeled",
                    "plane.modeled_deliveries"):
            assert key in counters
        assert counters["plane.messages_modeled"] == 1.0


class TestCrowdDelivery:
    def test_broadcast_reaches_every_replica_through_the_crowd(self):
        sim, net, nodes = build_plane(total_nodes=100, replicas=4)
        nodes[0].broadcast(make_message("hello"))
        sim.run()
        for node in nodes[1:]:
            assert [p for _, p in node.received] == ["hello"]
        stats = net.plane_stats()
        assert stats["boundary_nodes"] == 4
        assert stats["modeled_nodes"] == 96
        assert stats["messages_modeled"] == 1
        assert stats["propagation_max_s"] > 0

    def test_duplicate_broadcasts_are_suppressed(self):
        sim, net, nodes = build_plane()
        message = make_message("once")
        nodes[0].broadcast(message)
        sim.run()
        nodes[1].broadcast(message)  # same dedup key, already seen
        sim.run()
        assert net.plane_stats()["messages_modeled"] == 2
        for node in nodes[2:]:
            assert [p for _, p in node.received] == ["once"]

    def test_add_node_after_crowd_freezes_raises(self):
        sim, net, nodes = build_plane()
        nodes[0].broadcast(make_message("a"))
        sim.run()
        with pytest.raises(RuntimeError):
            net.add_node(Recorder("late"))


class TestDeterminism:
    def run_messages(self, seed):
        sim, net, nodes = build_plane(total_nodes=200, shards=4, seed=seed)
        for i in range(3):
            nodes[i % len(nodes)].broadcast(make_message(f"m{i}"))
            sim.run()
        received = tuple(tuple(p for _, p in n.received) for n in nodes)
        return net.plane_fingerprint(), received, net.plane_stats()

    def test_matches_parent_capture(self):
        """Crowd fingerprint, deliveries and stats of a 200-node,
        4-shard, 3-message run, captured on the commit before the shard
        worker processes were deleted."""
        assert self.run_messages(seed=42) == (
            "7a139395e577ff2e",
            (("m1", "m2"), ("m0", "m2"), ("m0", "m1"), ("m0", "m1", "m2")),
            {"boundary_nodes": 4.0, "modeled_nodes": 196.0,
             "modeled_deliveries": 588.0, "messages_modeled": 3.0,
             "propagation_max_s": 0.026869677226064082},
        )

    def test_seed_changes_the_fingerprint(self):
        base = self.run_messages(seed=42)[0]
        assert self.run_messages(seed=43)[0] != base


class TestFaultRecovery:
    def test_partitioned_replica_recovers_after_heal(self):
        sim, net, nodes = build_plane(total_nodes=100, replicas=4)
        names = [n.node_id for n in nodes]
        net.partition([names[:3], names[3:]])
        nodes[0].broadcast(make_message("cut"))
        sim.run(until=sim.now + 5.0)
        assert nodes[3].received == []
        net.heal()
        net.kick_retries()
        sim.run(until=sim.now + 120.0)
        assert [p for _, p in nodes[3].received] == ["cut"]


class TestDeploymentIntegration:
    def test_bft_has_no_sharded_plane(self):
        scale = TopologyScale(total_nodes=1_000, plane="sharded")
        with pytest.raises(ValueError, match="sharded plane"):
            build_deployment("bft", node_count=4, topology_scale=scale)

    def test_plane_validates_the_crowd_when_built(self):
        with pytest.raises(ValueError, match="shards must be in"):
            ShardedMessagePlane(Simulator(seed=0), total_nodes=4, shards=5)
        with pytest.raises(ValueError, match="total_nodes must be >= 2"):
            ShardedMessagePlane(Simulator(seed=0), total_nodes=1)
        # The crowd graph's chord count is ShardedConfig's, not the plane's.
        with pytest.raises(TypeError):
            ShardedMessagePlane(Simulator(seed=0), total_nodes=100, chords=3)

    def test_bad_crowd_shape_fails_at_setup_not_mid_run(self):
        """More shards than crowd nodes used to pass setup and raise from
        the first gossip inside advance()."""
        scale = TopologyScale(total_nodes=4, plane="sharded", shards=5)
        deployment = build_deployment("blockchain", node_count=4,
                                      topology_scale=scale)
        with pytest.raises(ValueError, match="shards must be in"):
            deployment.setup(4, 10**9)

    def test_sharded_deployment_reports_scale_stats(self):
        scale = TopologyScale(total_nodes=500, plane="sharded", shards=2)
        deployment = build_deployment(
            "blockchain", node_count=4, seed=3, topology_scale=scale)
        deployment.setup(4, 10**9)
        deployment.ledger.submit(PaymentEvent(
            time_s=0.0, sender_index=0, recipient_index=1, amount=5))
        deployment.ledger.advance(30.0)
        stats = deployment.scale_stats()
        assert stats["scaled"] == 1.0
        assert stats["boundary_nodes"] == 4
        assert stats["modeled_nodes"] == 496
        assert stats["messages_modeled"] > 0
