"""Tests for blockchain catch-up sync and determinism guarantees."""

from dataclasses import replace

import pytest

from repro.common.errors import GenesisMismatchError, PrunedHistoryError, ValidationError
from repro.core.adapters import BlockchainLedger
from repro.crypto.keys import KeyPair
from repro.net.link import FAST_LINK
from repro.net.network import Network
from repro.net.topology import complete_topology
from repro.sim.simulator import Simulator
from repro.blockchain.block import build_genesis_with_allocations
from repro.blockchain.node import BlockchainNode
from repro.blockchain.params import BITCOIN, ETHEREUM
from repro.storage.pruning import prune_chain
from repro.workloads.generators import PaymentWorkload

PARAMS = replace(BITCOIN, target_block_interval_s=10.0, confirmation_depth=3)
ACCOUNT_PARAMS = replace(ETHEREUM, target_block_interval_s=10.0,
                         confirmation_depth=3)


def build_world(seed=9, node_count=4):
    keys = [KeyPair.from_seed(bytes([i + 1]) * 32) for i in range(2)]
    genesis = build_genesis_with_allocations({k.address: 10**6 for k in keys})
    sim = Simulator(seed=seed)
    net = Network(sim)
    nodes = [
        n for n in complete_topology(
            net, node_count, lambda nid: BlockchainNode(nid, PARAMS, genesis),
            FAST_LINK,
        )
        if isinstance(n, BlockchainNode)
    ]
    for i, node in enumerate(nodes):
        node.start_pow_mining(
            1 / node_count, KeyPair.from_seed(bytes([77 + i]) * 32).address
        )
    return sim, net, nodes, genesis


class TestSyncFrom:
    def test_lagging_replica_catches_up(self):
        sim, net, nodes, genesis = build_world()
        laggard = BlockchainNode("laggard", PARAMS, genesis)
        sim.run(until=300)
        adopted = laggard.sync_from(nodes[0])
        assert adopted == nodes[0].chain.height
        assert laggard.chain.head.block_id == nodes[0].chain.head.block_id
        # UTXO state replayed correctly too.
        assert laggard.utxo.total_value() == nodes[0].utxo.total_value()

    def test_sync_is_idempotent(self):
        sim, net, nodes, genesis = build_world()
        sim.run(until=200)
        laggard = BlockchainNode("laggard", PARAMS, genesis)
        laggard.sync_from(nodes[0])
        assert laggard.sync_from(nodes[0]) == 0

    def test_sync_applies_fork_choice(self):
        """Syncing from a lighter peer after following a heavier one
        must not regress the chain."""
        sim, net, nodes, genesis = build_world()
        sim.run(until=300)
        heavy, light = nodes[0], BlockchainNode("light", PARAMS, genesis)
        light.sync_from(heavy)
        short_peer = BlockchainNode("short", PARAMS, genesis)
        # short_peer only has genesis; syncing from it adopts nothing.
        assert light.sync_from(short_peer) == 0
        assert light.chain.head.block_id == heavy.chain.head.block_id


class TestStateSyncFrom:
    def test_join_from_pruned_peer(self):
        """A pruned peer's old bodies are gone; a checkpoint state sync
        still brings a joining replica to the same head and state."""
        from repro.storage.pruning import prune_chain

        sim, net, nodes, genesis = build_world()
        sim.run(until=400)
        peer = nodes[0]
        prune_chain(peer.chain, keep_depth=3)
        joiner = BlockchainNode("joiner", PARAMS, genesis)
        adopted = joiner.state_sync_from(peer, keep_depth=3)
        assert adopted == peer.chain.height
        assert joiner.chain.head.block_id == peer.chain.head.block_id
        assert joiner.utxo.total_value() == peer.utxo.total_value()

    def test_headers_only_below_pivot(self):
        sim, net, nodes, genesis = build_world()
        sim.run(until=400)
        peer = nodes[0]
        joiner = BlockchainNode("joiner", PARAMS, genesis)
        joiner.state_sync_from(peer, keep_depth=2)
        pivot = max(peer.chain.height - 2, 0)
        assert pivot > 0
        for block in joiner.chain.main_chain()[1:]:
            if block.height <= pivot:
                assert block.transactions == ()

    def test_snapshot_is_independent(self):
        sim, net, nodes, genesis = build_world()
        sim.run(until=300)
        peer = nodes[0]
        joiner = BlockchainNode("joiner", PARAMS, genesis)
        joiner.state_sync_from(peer, keep_depth=2)
        assert joiner.utxo is not peer.utxo
        before = peer.utxo.total_value()
        outpoint = next(iter(joiner.utxo._utxos))
        joiner.utxo._remove(outpoint)
        assert peer.utxo.total_value() == before

    def test_wire_accounting(self):
        sim, net, nodes, genesis = build_world()
        sim.run(until=300)
        peer = nodes[0]
        joiner = BlockchainNode("joiner", PARAMS, genesis)
        joiner.state_sync_from(peer, keep_depth=2)
        for node in (joiner, peer):
            assert node.transport.counters.state_syncs == 1
            assert node.transport.counters.state_sync_bytes > 0
        # The checkpoint sync ships less than a full-body replay would.
        full_bytes = sum(
            b.size_bytes for b in peer.chain.main_chain()[1:]
        )
        assert (joiner.transport.counters.state_sync_bytes
                < full_bytes + peer.utxo.serialized_size_bytes())


class TestAccountStateSync:
    """Section V-A fast sync on an account chain: headers up to the
    pivot, the trie under the pivot header's state root, and a replay of
    the bodies above it."""

    KEEP_DEPTH = 8

    def build_pruned_peer(self):
        ledger = BlockchainLedger(params=ETHEREUM, node_count=3,
                                  link_params=FAST_LINK, seed=1)
        ledger.setup(accounts=4, initial_balance=10**9)
        events = PaymentWorkload(accounts=4, rate_tps=0.2, seed=1).generate(240.0)
        ledger.run_workload(events, settle_s=60.0)
        peer = ledger.nodes[0]
        prune_chain(peer.chain, keep_depth=self.KEEP_DEPTH)
        allocations = {kp.address: 10**9 for kp in ledger.keys}
        joiner = BlockchainNode("joiner", ETHEREUM, peer.chain.genesis,
                                genesis_allocations=allocations)
        return peer, joiner

    def test_join_from_pruned_peer(self):
        """A replay-only join used to adopt 0 blocks from this peer: its
        old bodies are gone."""
        peer, joiner = self.build_pruned_peer()
        pivot = peer.chain.height - self.KEEP_DEPTH
        assert pivot > 0
        adopted = joiner.state_sync_from(peer, keep_depth=self.KEEP_DEPTH)
        assert adopted == peer.chain.height
        assert joiner.chain.head.block_id == peer.chain.head.block_id
        assert joiner.state.root_hash == peer.state.root_hash
        assert dict(joiner.state.accounts()) == dict(peer.state.accounts())
        for node in (joiner, peer):
            assert node.transport.counters.state_syncs == 1
            assert node.transport.counters.state_sync_bytes > 0
        # Headers only up to the pivot; only the bodies above it replayed.
        for block in joiner.chain.main_chain()[1 : pivot + 1]:
            assert block.transactions == ()
        assert joiner.stats.blocks_accepted == self.KEEP_DEPTH
        assert joiner.chain.cemented_height == pivot
        assert len(joiner.intake) == 0

    @pytest.mark.parametrize("tamper", ["drop", "flip"])
    def test_tampered_snapshot_is_refused(self, monkeypatch, tamper):
        peer, joiner = self.build_pruned_peer()
        export = peer.state.export_snapshot

        def forged(root):
            nodes = export(root)
            victim = min(nodes, key=bytes)
            if tamper == "drop":
                del nodes[victim]
            else:
                raw = nodes[victim]
                nodes[victim] = raw[:-1] + bytes([raw[-1] ^ 1])
            return nodes

        monkeypatch.setattr(peer.state, "export_snapshot", forged)
        genesis_root = joiner.state.root_hash
        with pytest.raises(ValidationError, match="state snapshot"):
            joiner.state_sync_from(peer, keep_depth=self.KEEP_DEPTH)
        assert joiner.chain.height == 0 and len(joiner.intake) == 0
        assert joiner.state.root_hash == genesis_root
        assert joiner.transport.counters.state_syncs == 0

    def test_pruned_pivot_state_is_refused(self):
        peer, joiner = self.build_pruned_peer()
        peer.state.prune_history()  # keeps the head's state only
        with pytest.raises(PrunedHistoryError):
            joiner.state_sync_from(peer, keep_depth=self.KEEP_DEPTH)
        assert joiner.chain.height == 0 and len(joiner.intake) == 0


class TestJoinerGenesisState:
    """A joiner whose genesis state is not the peer's is refused with a
    typed error before any block is replayed; it used to swallow every
    block's ``ReproError`` and report "0 adopted"."""

    def build_account_world(self):
        keys = [KeyPair.from_seed(bytes([i + 1]) * 32) for i in range(2)]
        allocations = {k.address: 10**6 for k in keys}
        genesis = build_genesis_with_allocations({keys[0].address: 1})
        sim = Simulator(seed=9)
        nodes = complete_topology(
            Network(sim), 3,
            lambda nid: BlockchainNode(nid, ACCOUNT_PARAMS, genesis,
                                       genesis_allocations=allocations),
            FAST_LINK)
        for i, node in enumerate(nodes):
            node.start_pow_mining(
                1 / 3, KeyPair.from_seed(bytes([77 + i]) * 32).address)
        sim.run(until=150)
        assert nodes[0].chain.height >= 5
        return nodes[0], genesis, allocations

    def test_account_joiner_without_allocations_is_refused(self):
        peer, genesis, allocations = self.build_account_world()
        joiner = BlockchainNode("joiner", ACCOUNT_PARAMS, genesis)
        for join in (joiner.sync_from, joiner.state_sync_from):
            with pytest.raises(GenesisMismatchError, match="genesis"):
                join(peer)
        assert joiner.chain.height == 0
        assert joiner.stats.blocks_rejected == 0 and len(joiner.intake) == 0
        # Seeded with the chain's allocations the same join converges,
        # and a joiner with nothing left to adopt still reports 0.
        seeded = BlockchainNode("seeded", ACCOUNT_PARAMS, genesis,
                                genesis_allocations=allocations)
        assert seeded.sync_from(peer) == peer.chain.height
        assert seeded.chain.head.block_id == peer.chain.head.block_id
        assert seeded.sync_from(peer) == 0
        assert seeded.state_sync_from(peer) == 0

    def test_foreign_genesis_block_is_refused(self):
        sim, net, nodes, genesis = build_world()
        sim.run(until=100)
        other = build_genesis_with_allocations(
            {KeyPair.from_seed(b"\x09" * 32).address: 5})
        joiner = BlockchainNode("joiner", PARAMS, other)
        with pytest.raises(GenesisMismatchError):
            joiner.state_sync_from(nodes[0], keep_depth=3)
        assert joiner.chain.height == 0 and len(joiner.intake) == 0


class TestDeterminism:
    def test_identical_seeds_identical_universe(self):
        """Full-stack regression guard: same seed ⇒ byte-identical chain
        heads, heights, and UTXO totals."""

        def fingerprint(seed):
            sim, net, nodes, _ = build_world(seed=seed)
            sim.run(until=400)
            observer = nodes[0]
            return (
                observer.chain.head.block_id.hex,
                observer.chain.height,
                observer.utxo.total_value(),
                net.messages_delivered,
            )

        assert fingerprint(123) == fingerprint(123)

    def test_different_seeds_differ(self):
        def head(seed):
            sim, net, nodes, _ = build_world(seed=seed)
            sim.run(until=400)
            return nodes[0].chain.head.block_id

        assert head(1) != head(2)
