"""Tests for the layered protocol stack (repro.protocol).

Covers the layers in isolation (intake parking/eviction, transport
offline queueing) and the cross-paradigm lifecycle guarantees the stack
gives every node type: republish-on-reconnect (previously NanoNode-only,
forced there by the fuzzer) and intake revival on partition heal.
"""

from dataclasses import replace

import pytest

from repro.core.deploy import build_deployment
from repro.crypto.keys import KeyPair, clear_sigcache, sigcache_counters
from repro.net.link import FAST_LINK, LinkParams
from repro.net.message import Message
from repro.net.network import Network
from repro.net.topology import complete_topology
from repro.protocol import IntakeLayer, TransportLayer, protocol_nodes
from repro.sim.simulator import Simulator
from repro.blockchain.block import build_genesis_with_allocations
from repro.blockchain.node import MSG_BLOCK, BlockchainNode
from repro.blockchain.params import BITCOIN
from repro.blockchain.transaction import build_transaction
from repro.dag.byteball_node import ByteballNode
from repro.dag.tangle import issue_transaction
from repro.dag.tangle_node import MSG_TANGLE_TX, TangleNode
from repro.workloads.generators import PaymentEvent

FAST_BITCOIN = replace(BITCOIN, target_block_interval_s=10.0, confirmation_depth=3)


# ---------------------------------------------------------------------------
# IntakeLayer
# ---------------------------------------------------------------------------


class TestIntakeLayer:
    def test_park_and_satisfy_in_arrival_order(self):
        intake = IntakeLayer()
        intake.park("dep", "a")
        intake.park("dep", "b")
        intake.park("other", "c")
        assert len(intake) == 3
        assert "dep" in intake
        assert intake.parked_for("dep") == ["a", "b"]
        assert intake.satisfy("dep") == ["a", "b"]
        assert len(intake) == 1
        assert intake.satisfy("dep") == []
        assert intake.counters.parked == 3
        assert intake.counters.retried == 2

    def test_drain_pops_everything_oldest_first(self):
        intake = IntakeLayer()
        intake.park("d1", "a")
        intake.park("d2", "b")
        intake.park("d1", "c")
        assert intake.drain() == ["a", "c", "b"]
        assert len(intake) == 0
        assert intake.waiting_on() == []
        assert intake.counters.revived == 3

    def test_capacity_evicts_stalest_dependency(self):
        intake = IntakeLayer(capacity=2)
        intake.park("d1", "a")
        intake.park("d2", "b")
        evicted = intake.park("d3", "c")
        assert evicted == 1
        assert len(intake) == 2
        assert "d1" not in intake  # stalest dependency went first
        assert intake.counters.evicted == 1

    def test_eviction_never_drops_the_artifact_just_parked(self):
        intake = IntakeLayer(capacity=1)
        intake.park("d1", "a")
        intake.park("d1", "b")  # same key over capacity: oldest entry goes
        assert intake.parked_for("d1") == ["b"]
        assert len(intake) == 1

    def test_just_parked_bucket_sheds_its_own_oldest_entries(self):
        # When the just-parked key IS the stalest bucket, eviction pops
        # that bucket's oldest entries one at a time — the freshly
        # parked artifact (last in the bucket) is never the victim.
        intake = IntakeLayer(capacity=2)
        intake.park("d1", "a")
        intake.park("d1", "b")
        evicted = intake.park("d1", "c")
        assert evicted == 1
        assert intake.parked_for("d1") == ["b", "c"]
        assert len(intake) == 2
        assert intake.counters.parked == 3
        assert intake.counters.evicted == 1

    def test_break_leaves_size_over_capacity_by_design(self):
        """Pin the ``break`` branch: when the oldest bucket is the
        just-parked key shed down to the one artifact just parked,
        eviction stops rather than drop it — or touch *newer* buckets —
        intentionally leaving ``len > capacity``.  (With a constant
        capacity the invariant ``len <= capacity + 1`` keeps this
        unreachable; shrinking capacity at runtime exposes it, e.g. an
        adaptive memory bound.)"""
        intake = IntakeLayer(capacity=4)
        intake.park("old", "a")
        intake.park("new", "b")
        intake.park("new", "c")
        intake.capacity = 1  # runtime shrink
        evicted = intake.park("old", "d")
        # "old" is the stalest bucket and the just-parked key: its stale
        # entry "a" is shed, then the loop breaks on the just-parked "d"
        # instead of dropping it or skipping ahead to newer buckets.
        assert evicted == 1
        assert intake.parked_for("old") == ["d"]
        assert intake.parked_for("new") == ["b", "c"]
        assert len(intake) == 3  # > capacity, by design
        assert intake.counters.parked == 4
        assert intake.counters.evicted == 1
        # The next park on a *different* key resumes normal FIFO
        # eviction and drains the backlog.
        evicted = intake.park("fresh", "e")
        assert evicted == 3
        assert intake.parked_for("fresh") == ["e"]
        assert len(intake) == 1

    def test_counters_stay_consistent_through_eviction_churn(self):
        """parked - retried - revived - evicted must equal the live
        size through any interleaving of park/satisfy/drain/evict."""
        intake = IntakeLayer(capacity=3)

        def live_balance():
            c = intake.counters
            return c.parked - c.retried - c.revived - c.evicted

        intake.park("d1", "a")
        intake.park("d2", "b")
        intake.park("d2", "c")
        assert live_balance() == len(intake) == 3
        intake.park("d3", "d")  # evicts the d1 bucket
        assert live_balance() == len(intake) == 3
        assert intake.satisfy("d2") == ["b", "c"]
        assert live_balance() == len(intake) == 1
        intake.park("d4", "e")
        assert intake.drain() == ["d", "e"]
        assert live_balance() == len(intake) == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            IntakeLayer(capacity=0)

    def test_unbounded_when_capacity_none(self):
        intake = IntakeLayer(capacity=None)
        for i in range(5000):
            intake.park(f"d{i}", i)
        assert len(intake) == 5000
        assert intake.counters.evicted == 0


# ---------------------------------------------------------------------------
# TransportLayer
# ---------------------------------------------------------------------------


class _FakeNode:
    def __init__(self):
        self.online = True
        self.sent = []

    def broadcast(self, message):
        self.sent.append(message)


def _msg(tag):
    return Message(kind="t", payload=tag, size_bytes=10, dedup_key=tag)


class TestTransportLayer:
    def test_publish_online_broadcasts_immediately(self):
        node = _FakeNode()
        transport = TransportLayer(node)
        assert transport.publish("a", _msg("a")) is True
        assert [m.payload for m in node.sent] == ["a"]
        assert transport.counters.published == 1
        assert transport.offline_backlog == 0

    def test_publish_offline_queues_until_reconnect(self):
        node = _FakeNode()
        transport = TransportLayer(node)
        node.online = False
        assert transport.publish("a", _msg("a")) is False
        assert transport.publish("b", _msg("b")) is False
        assert node.sent == []
        assert transport.offline_backlog == 2
        node.online = True
        assert transport.on_reconnect() == 2
        assert [m.payload for m in node.sent] == ["a", "b"]
        assert transport.counters.queued_offline == 2
        assert transport.counters.republished == 2

    def test_reconnect_filters_through_retain(self):
        node = _FakeNode()
        transport = TransportLayer(node, retain=lambda artifact: artifact == "keep")
        node.online = False
        transport.publish("keep", _msg("keep"))
        transport.publish("stale", _msg("stale"))
        node.online = True
        assert transport.on_reconnect() == 1
        assert [m.payload for m in node.sent] == ["keep"]
        assert transport.counters.dropped_stale == 1


# ---------------------------------------------------------------------------
# Republish-on-reconnect, per paradigm (the PR-4 NanoNode fix, now shared;
# NanoNode's own regression lives in test_dag_node.py::TestOfflineRepublish)
# ---------------------------------------------------------------------------


def build_chain_network(node_count=3, seed=0):
    keys = [KeyPair.from_seed(bytes([i + 1]) * 32) for i in range(2)]
    allocations = {kp.address: 1_000_000 for kp in keys}
    genesis = build_genesis_with_allocations(allocations)
    sim = Simulator(seed=seed)
    net = Network(sim)
    factory = lambda nid: BlockchainNode(nid, FAST_BITCOIN, genesis)  # noqa: E731
    nodes = protocol_nodes(complete_topology(net, node_count, factory, FAST_LINK))
    return sim, net, nodes, keys


def build_tangle_network(node_count=3, seed=0, **node_kwargs):
    sim = Simulator(seed=seed)
    net = Network(sim)
    factory = lambda nid: TangleNode(  # noqa: E731
        nid, seed=int(nid[1:]), **node_kwargs
    )
    nodes = protocol_nodes(complete_topology(net, node_count, factory, FAST_LINK))
    key = KeyPair.from_seed(bytes([9]) * 32)
    genesis = nodes[0].seed_genesis(key)
    for node in nodes[1:]:
        node.install_genesis(genesis)
    return sim, net, nodes, key


def build_byteball_network(node_count=3, seed=0):
    sim = Simulator(seed=seed)
    net = Network(sim)
    witness = KeyPair.from_seed(bytes([7]) * 32)
    factory = lambda nid: ByteballNode(nid, [witness.address])  # noqa: E731
    nodes = protocol_nodes(complete_topology(net, node_count, factory, FAST_LINK))
    genesis = nodes[0].seed_genesis(witness)
    for node in nodes[1:]:
        node.install_genesis(genesis)
    return sim, net, nodes, witness


class TestRepublishOnReconnect:
    def test_blockchain_transaction_created_offline_republishes(self):
        sim, net, nodes, keys = build_chain_network()
        alice, bob = keys
        wallet = nodes[0]
        wallet.set_online(False)
        tx = build_transaction(
            alice, wallet.utxo.spendable(alice.address), bob.address, 500, fee=10
        )
        assert wallet.submit_transaction(tx)  # admitted locally, queued
        sim.run(until=sim.now + 10)
        assert all(tx.txid not in n.mempool for n in nodes[1:])
        wallet.set_online(True)
        sim.run(until=sim.now + 10)
        assert all(tx.txid in n.mempool for n in nodes[1:])
        assert wallet.transport.counters.republished == 1

    def test_blockchain_block_produced_offline_republishes(self):
        sim, net, nodes, keys = build_chain_network()
        producer = nodes[0]
        proposer = KeyPair.from_seed(bytes([42]) * 32).address
        producer.set_online(False)
        block = producer.create_block_template(timestamp=sim.now, proposer=proposer)
        producer.receive_block(block)
        producer.transport.publish(
            block,
            Message(kind=MSG_BLOCK, payload=block,
                    size_bytes=block.size_bytes, dedup_key=block.block_id),
        )
        sim.run(until=sim.now + 10)
        assert all(n.chain.height == 0 for n in nodes[1:])
        producer.set_online(True)
        sim.run(until=sim.now + 10)
        assert all(n.chain.height == 1 for n in nodes)
        assert len({n.chain.head.block_id for n in nodes}) == 1

    def test_tangle_transaction_issued_offline_republishes(self):
        sim, net, nodes, key = build_tangle_network()
        issuer = nodes[0]
        issuer.set_online(False)
        tx = issuer.issue(key, b"made-offline")
        sim.run(until=sim.now + 10)
        assert all(tx.tx_hash not in n.tangle for n in nodes[1:])
        issuer.set_online(True)
        sim.run(until=sim.now + 10)
        assert all(tx.tx_hash in n.tangle for n in nodes)

    def test_byteball_unit_issued_offline_republishes(self):
        sim, net, nodes, witness = build_byteball_network()
        issuer = nodes[0]
        issuer.set_online(False)
        unit = issuer.issue(witness, b"made-offline")
        sim.run(until=sim.now + 10)
        assert all(unit.unit_hash not in n.dag for n in nodes[1:])
        issuer.set_online(True)
        sim.run(until=sim.now + 10)
        assert all(unit.unit_hash in n.dag for n in nodes)


# ---------------------------------------------------------------------------
# Bounded intake + revival on partition heal
# ---------------------------------------------------------------------------


class TestBoundedIntake:
    def test_tangle_pending_parent_buffer_is_bounded(self):
        sim, net, nodes, key = build_tangle_network(intake_capacity=2)
        target = nodes[-1]
        tips = nodes[0].tangle.tips()
        orphans = []
        for i in range(3):
            parent = issue_transaction(key, tips[0], tips[0], f"p{i}".encode(), 10.0)
            child = issue_transaction(
                key, parent.tx_hash, parent.tx_hash, f"c{i}".encode(), 11.0
            )
            orphans.append(child)
            target.deliver(
                "test",
                Message(kind=MSG_TANGLE_TX, payload=child,
                        size_bytes=child.size_bytes, dedup_key=child.tx_hash),
            )
        assert target.stats.parked == 3
        assert len(target.intake) == 2  # capacity bound held
        assert target.intake.counters.evicted == 1

    def test_tangle_parked_transactions_revive_on_partition_heal(self):
        sim, net, nodes, key = build_tangle_network()
        target = nodes[-1]
        target_id = target.node_id
        others = [n.node_id for n in nodes if n is not target]
        net.partition([others, [target_id]])
        parent = nodes[0].issue(key, b"parent")
        sim.run(until=sim.now + 2)
        child = issue_transaction(
            key, parent.tx_hash, parent.tx_hash, b"child", sim.now
        )
        # The child sneaks in via direct delivery; its parent is stuck on
        # the far side of the partition, so it parks.
        target.deliver(
            "test",
            Message(kind=MSG_TANGLE_TX, payload=child,
                    size_bytes=child.size_bytes, dedup_key=child.tx_hash),
        )
        assert child.tx_hash not in target.tangle
        assert len(target.intake) == 1
        net.heal()
        sim.run(until=sim.now + 15)
        assert parent.tx_hash in target.tangle
        assert child.tx_hash in target.tangle
        assert len(target.intake) == 0

    def test_heal_revives_even_without_retried_gossip(self):
        """Revival must not depend on the dependency re-arriving through
        this node's own ingest path: adopt the parent out-of-band (as
        bootstrap does), then heal — the parked child integrates."""
        sim, net, nodes, key = build_tangle_network()
        target = nodes[-1]
        parent = issue_transaction(
            key, nodes[0].tangle.genesis_hash, nodes[0].tangle.genesis_hash,
            b"parent", 5.0,
        )
        child = issue_transaction(
            key, parent.tx_hash, parent.tx_hash, b"child", 6.0
        )
        target.deliver(
            "test",
            Message(kind=MSG_TANGLE_TX, payload=child,
                    size_bytes=child.size_bytes, dedup_key=child.tx_hash),
        )
        assert len(target.intake) == 1
        target.tangle.attach(parent)  # out-of-band adoption, no retry fires
        net.heal()
        assert child.tx_hash in target.tangle
        assert len(target.intake) == 0
        assert target.intake.counters.revived == 1


# ---------------------------------------------------------------------------
# ByteballNode basics (the fourth paradigm on the stack)
# ---------------------------------------------------------------------------


class TestByteballNode:
    def test_issued_units_reach_all_replicas_in_total_order(self):
        sim, net, nodes, witness = build_byteball_network(node_count=4)
        for i in range(8):
            nodes[i % len(nodes)].issue(witness, f"u{i}".encode())
            sim.run(until=sim.now + 1)
        sim.run(until=sim.now + 10)
        assert {len(n.dag) for n in nodes} == {9}  # genesis + 8
        orders = {tuple(n.dag.total_order()) for n in nodes}
        assert len(orders) == 1

    def test_out_of_order_units_park_and_recover(self):
        sim, net, nodes, witness = build_byteball_network()
        issuer, target = nodes[0], nodes[-1]
        parent = issuer.issue(witness, b"parent")
        from repro.dag.byteball import make_unit

        child = make_unit(witness, [parent.unit_hash], b"child", 50.0)
        target.handle_message("test", target._unit_message(child))
        assert child.unit_hash not in target.dag
        assert target.stats.parked == 1
        sim.run(until=sim.now + 5)  # parent arrives by gossip, retries child
        target.handle_message("test", target._unit_message(child))
        sim.run(until=sim.now + 5)
        assert child.unit_hash in target.dag

    def test_units_stabilize_under_witness_majority(self):
        sim, net, nodes, witness = build_byteball_network()
        first = nodes[0].issue(witness, b"first")
        for i in range(10):
            nodes[0].issue(witness, f"w{i}".encode())
            sim.run(until=sim.now + 1)
        sim.run(until=sim.now + 5)
        assert all(n.is_stable(first.unit_hash) for n in nodes)


# ---------------------------------------------------------------------------
# Same-instant delivery bursts
# ---------------------------------------------------------------------------


class TestSameInstantBurst:
    def test_signed_nano_burst_over_zero_jitter_links(self):
        """Arrivals share an instant when links have zero jitter and an
        origin has a single peer; each still fires as its own event, in
        scheduling order.  Nothing batch-verifies that burst, and nothing
        needs to: every signature was cached when its block or vote was
        signed, so the scalar checks never miss."""
        clear_sigcache()
        deployment = build_deployment(
            "dag", node_count=2, seed=1,
            link_params=LinkParams(jitter_s=0.0)).setup(2, 1_000_000)
        ledger, network = deployment.ledger, deployment.network
        for _ in range(6):  # six chained sends published at one instant
            assert ledger.submit(PaymentEvent(
                time_s=ledger.now(), sender_index=0, recipient_index=1,
                amount=5)) is not None
        ledger.advance(10.0)

        # Captured when same-instant arrivals at a node were still
        # drained as one dispatch (the largest burst held six items).
        assert ledger.state_digest() == (
            "11d4c1c33af853e3f2612d16bdb2a3b401d86202ed5813ae373e1cf2180208dc")
        assert network.tracer.fingerprint() == (
            "db566b50af14210f49267552abf007b0b247fd0b0f3f249b5000e8bdd9adbdf7")
        assert network.simulator.events_processed == 48
        origin = ledger.testbed.node_for(ledger.keys[0].address)
        heads = {chain.account: chain.head.block_hash
                 for chain in origin.lattice.chains()}
        assert len(heads) == 3  # genesis + both users
        for node in deployment.nodes:
            assert {chain.account: chain.head.block_hash
                    for chain in node.lattice.chains()} == heads
        assert ledger.balance(1) == 1_000_030
        assert ledger.audit().ok
        assert sigcache_counters()["sigcache.misses"] == 0
