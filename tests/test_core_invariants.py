"""Tests for repro.core.invariants (deployment auditing)."""

from dataclasses import replace

import pytest

from repro.crypto.keys import KeyPair
from repro.net.link import FAST_LINK, LinkParams
from repro.net.network import Network
from repro.net.topology import complete_topology
from repro.sim.simulator import Simulator
from repro.blockchain.block import build_genesis_with_allocations
from repro.blockchain.node import BlockchainNode
from repro.blockchain.params import BITCOIN
from repro.core.invariants import audit_blockchain, audit_lattice
from repro.dag.bootstrap import build_nano_testbed, fund_accounts

PARAMS = replace(BITCOIN, target_block_interval_s=10.0, confirmation_depth=3)


@pytest.fixture
def mined_network():
    keys = [KeyPair.from_seed(bytes([i + 1]) * 32) for i in range(2)]
    genesis = build_genesis_with_allocations({k.address: 10**6 for k in keys})
    sim = Simulator(seed=1)
    net = Network(sim)
    nodes = [
        n for n in complete_topology(
            net, 4, lambda nid: BlockchainNode(nid, PARAMS, genesis), FAST_LINK
        )
        if isinstance(n, BlockchainNode)
    ]
    for i, node in enumerate(nodes):
        node.start_pow_mining(0.25, KeyPair.from_seed(bytes([60 + i]) * 32).address)
    sim.run(until=400)
    return nodes, 2 * 10**6


class TestBlockchainAudit:
    def test_healthy_network_passes(self, mined_network):
        nodes, supply = mined_network
        report = audit_blockchain(nodes, expected_supply_base=supply)
        assert report.ok, report.render()

    def test_supply_violation_detected(self, mined_network):
        nodes, supply = mined_network
        report = audit_blockchain(nodes, expected_supply_base=supply + 999)
        assert not report.ok
        assert any(v.invariant == "supply" for v in report.violations)

    def test_render_mentions_nodes(self, mined_network):
        nodes, supply = mined_network
        report = audit_blockchain(nodes, expected_supply_base=supply + 1)
        assert "n0" in report.render()

    def test_empty_deployment_flagged(self):
        report = audit_blockchain([], expected_supply_base=0)
        assert not report.ok

    def test_single_node_deployment_audits_clean(self):
        """A one-replica network trivially agrees with itself; supply and
        double-spend checks still run."""
        keys = [KeyPair.from_seed(bytes([i + 1]) * 32) for i in range(2)]
        genesis = build_genesis_with_allocations({k.address: 10**6 for k in keys})
        sim = Simulator(seed=9)
        net = Network(sim)
        nodes = [
            n for n in complete_topology(
                net, 1, lambda nid: BlockchainNode(nid, PARAMS, genesis),
                FAST_LINK,
            )
            if isinstance(n, BlockchainNode)
        ]
        nodes[0].start_pow_mining(1.0, keys[0].address)
        sim.run(until=100)
        report = audit_blockchain(nodes, expected_supply_base=2 * 10**6)
        assert report.ok, report.render()

    def test_divergent_chains_walk_every_replica(self, mined_network):
        """When agreement fails, the double-spend walk must cover every
        replica's own main chain, not just nodes[0]'s."""
        nodes, supply = mined_network
        keys = [KeyPair.from_seed(bytes([i + 1]) * 32) for i in range(2)]
        genesis = build_genesis_with_allocations({k.address: 10**6 for k in keys})
        # A replica on a private fork: agreement fails, so its chain must
        # be audited independently of the majority's.
        sim2 = Simulator(seed=5)
        net2 = Network(sim2)
        forked = [
            n for n in complete_topology(
                net2, 1, lambda nid: BlockchainNode("fork0", PARAMS, genesis),
                FAST_LINK,
            )
            if isinstance(n, BlockchainNode)
        ]
        forked[0].start_pow_mining(
            1.0, KeyPair.from_seed(bytes([99]) * 32).address
        )
        sim2.run(until=400)
        report = audit_blockchain(nodes + forked, expected_supply_base=supply)
        assert any(v.invariant == "agreement" for v in report.violations)

    def test_lagging_replica_detected(self, mined_network):
        """A replica that stopped hearing blocks long ago fails the
        liveness check."""
        from repro.blockchain.node import BlockchainNode as BN

        nodes, supply = mined_network
        keys = [KeyPair.from_seed(bytes([i + 1]) * 32) for i in range(2)]
        genesis = build_genesis_with_allocations({k.address: 10**6 for k in keys})
        stale = BN("stale", PARAMS, genesis)
        report = audit_blockchain(nodes + [stale], expected_supply_base=supply)
        assert any(v.invariant == "liveness" for v in report.violations)
        assert "stale" in report.render()


class TestLatticeAudit:
    def test_healthy_testbed_passes(self):
        tb = build_nano_testbed(
            node_count=5, representative_count=2, seed=2,
            link_params=LinkParams(latency_s=0.05, jitter_s=0.01),
        )
        users = fund_accounts(tb, 3, 10**6, settle_time=2.0)
        tb.node_for(users[0].address).send_payment(
            users[0].address, users[1].address, 500
        )
        tb.simulator.run(until=tb.simulator.now + 10)
        report = audit_lattice(tb.nodes, expected_supply=10**15)
        assert report.ok, report.render()

    def test_wrong_supply_detected(self):
        tb = build_nano_testbed(node_count=3, representative_count=1, seed=3)
        report = audit_lattice(tb.nodes, expected_supply=123)
        assert not report.ok
        assert all(v.invariant == "supply" for v in report.violations)

    def test_empty_deployment_flagged(self):
        report = audit_lattice([], expected_supply=10**15)
        assert not report.ok
        assert any(v.invariant == "setup" for v in report.violations)

    def test_single_node_deployment_audits_clean(self):
        tb = build_nano_testbed(node_count=1, representative_count=1, seed=6)
        fund_accounts(tb, 2, 10**6, settle_time=2.0)
        report = audit_lattice(tb.nodes, expected_supply=10**15)
        assert report.ok, report.render()

    def test_divergent_head_detected(self):
        tb = build_nano_testbed(
            node_count=4, representative_count=2, seed=4,
            link_params=LinkParams(latency_s=0.05, jitter_s=0.01),
        )
        users = fund_accounts(tb, 2, 10**6, settle_time=2.0)
        tb.simulator.run(until=tb.simulator.now + 5)
        # Partition one node and keep transacting: its heads go stale.
        tb.nodes[-1].set_online(False)
        tb.node_for(users[0].address).send_payment(
            users[0].address, users[1].address, 77
        )
        tb.simulator.run(until=tb.simulator.now + 10)
        report = audit_lattice(tb.nodes, expected_supply=10**15)
        assert any(v.invariant == "agreement" for v in report.violations)

    def test_linkage_violation_names_the_broken_account(self):
        """The linkage detail must name the chain it found broken (it
        used to print whichever account the agreement loop ended on)."""
        tb = build_nano_testbed(node_count=1, representative_count=1, seed=7)
        users = fund_accounts(tb, 2, 10**6, settle_time=2.0)
        node = tb.nodes[0]
        for sender, recipient in (users, users[::-1]):
            node.send_payment(sender.address, recipient.address, 5)
        tb.simulator.run(until=tb.simulator.now + 5)
        for user in users:
            chain = node.lattice.chain(user.address)
            assert chain.height >= 2
            chain.blocks.reverse()  # every link now points the wrong way
            report = audit_lattice(tb.nodes, expected_supply=10**15)
            chain.blocks.reverse()
            details = [v.detail for v in report.violations
                       if v.invariant == "linkage"]
            assert details
            assert all(d.startswith(f"{node.node_id}/{user.address.short()}:")
                       for d in details), details
