"""Tests for repro.storage: sizing, Bitcoin pruning, Ethereum fast sync."""

import pytest

from repro.crypto.keys import KeyPair
from repro.crypto.pow import MAX_TARGET
from repro.blockchain.block import assemble_block, build_genesis_block
from repro.blockchain.chain import ChainStore
from repro.blockchain.node import BlockchainNode
from repro.blockchain.params import ETHEREUM
from repro.blockchain.transaction import make_coinbase, sign_account_transaction
from repro.storage.pruning import PruneResult, prune_chain
from repro.storage.sizing import (
    blockchain_size_report,
    dag_size_report,
)


def build_chain(keypair, blocks=30, txs_per_block=3):
    genesis = build_genesis_block(keypair.address, 10**9)
    store = ChainStore(genesis)
    parent = genesis
    for height in range(1, blocks + 1):
        body = [make_coinbase(keypair.address, 50, nonce=height * 100 + i)
                for i in range(txs_per_block)]
        block = assemble_block(parent.header, body, float(height), MAX_TARGET)
        store.add_block(block)
        parent = block
    return store


class TestSizeReports:
    def test_blockchain_report_components(self, keypair):
        store = build_chain(keypair, blocks=10)
        report = blockchain_size_report(store)
        assert report.components["headers"] > 0
        assert report.components["tx_bodies"] > report.components["headers"]
        assert report.total_bytes == store.total_size_bytes()

    def test_dag_report(self, funded_lattice):
        lattice, *_ = funded_lattice
        report = dag_size_report(lattice)
        assert report.total_bytes == lattice.serialized_size()
        from repro.dag.blocks import NanoBlock

        assert report.components["signatures_and_work"] == (
            NanoBlock.AUTH_OVERHEAD_BYTES * lattice.block_count()
        )

    def test_render(self, keypair):
        store = build_chain(keypair, blocks=3)
        text = blockchain_size_report(store).render()
        assert "headers" in text and "tx_bodies" in text


class TestBitcoinPruning:
    def test_prune_frees_old_bodies_keeps_headers(self, keypair):
        store = build_chain(keypair, blocks=30)
        result = prune_chain(store, keep_depth=5)
        assert result.blocks_pruned == 26  # genesis..height 25
        assert result.bytes_freed > 0
        assert result.size_after == result.size_before - result.bytes_freed
        # Headers intact: chain still walks.
        assert store.block_at_height(0).header is not None
        assert store.block_at_height(0).transactions == ()

    def test_recent_window_retained(self, keypair):
        store = build_chain(keypair, blocks=30)
        prune_chain(store, keep_depth=5)
        for height in range(26, 31):
            assert store.block_at_height(height).transactions != ()

    def test_pruned_node_cannot_serve_history(self, keypair):
        """Section V-A: "other nodes are no longer able to download the
        entire history of a pruned node"."""
        store = build_chain(keypair, blocks=30)
        prune_chain(store, keep_depth=5)
        bodies = [store.block_at_height(h).transactions for h in range(30)]
        assert not all(bodies)
        assert bodies[0] == ()
        # Recent blocks still served.
        assert bodies[29]

    def test_double_prune_idempotent(self, keypair):
        store = build_chain(keypair, blocks=30)
        prune_chain(store, keep_depth=5)
        second = prune_chain(store, keep_depth=5)
        assert second.bytes_freed == 0

    def test_keep_depth_validated(self, keypair):
        store = build_chain(keypair, blocks=5)
        with pytest.raises(ValueError):
            prune_chain(store, keep_depth=0)

    def test_fraction_freed(self):
        result = PruneResult(1, 400, 1, 1000, 600)
        assert result.fraction_freed == pytest.approx(0.4)


class TestFastSync:
    """Section V-A fast sync, executed: a replica joins an account chain
    from a pivot state snapshot (``BlockchainNode.state_sync_from``)."""

    def build_account_peer(self, rng, blocks=20):
        alice, bob, miner = (KeyPair.generate(rng) for _ in range(3))
        genesis = build_genesis_block(miner.address, 1)
        allocations = {alice.address: 10**12}
        peer = BlockchainNode("peer", ETHEREUM, genesis,
                              genesis_allocations=allocations)
        for height in range(1, blocks + 1):
            peer.mempool.add(sign_account_transaction(
                alice, height - 1, bob.address, 100, gas_price=1))
            peer.receive_block(peer.create_block_template(float(height), miner.address))
        joiner = BlockchainNode("joiner", ETHEREUM, genesis,
                                genesis_allocations=allocations)
        return peer, joiner

    def test_join_skips_replay(self, rng):
        peer, joiner = self.build_account_peer(rng, blocks=20)
        assert joiner.state_sync_from(peer, keep_depth=5) == 20
        assert joiner.chain.cemented_height == 15
        assert joiner.stats.blocks_accepted == 5
        replayed = sum(len(b.transactions) for b in joiner.chain.main_chain()[1:])
        assert replayed == 5
        assert joiner.state.root_hash == peer.state.root_hash

    def test_state_snapshot_is_live_size(self, rng):
        peer, joiner = self.build_account_peer(rng, blocks=10)
        joiner.state_sync_from(peer, keep_depth=0)  # pivot at the head
        headers = sum(b.header.size_bytes for b in peer.chain.main_chain()[1:])
        snapshot = joiner.transport.counters.state_sync_bytes - headers
        assert snapshot == peer.state.live_size_bytes()
        assert snapshot < peer.state.store_size_bytes()
        assert joiner.stats.blocks_accepted == 0

    def test_delta_pruning_after_sync(self, rng):
        """"The result of the mechanism is a database pruned of the state
        deltas" — the joiner never downloads the deltas the peer prunes."""
        peer, joiner = self.build_account_peer(rng, blocks=10)
        joiner.state_sync_from(peer, keep_depth=0)
        assert joiner.state.store_size_bytes() < peer.state.store_size_bytes()
        assert peer.state.prune_history() > 0
        assert peer.state.store_size_bytes() == peer.state.live_size_bytes()
        joiner.state.prune_history()  # its genesis version
        assert joiner.state.store_size_bytes() == peer.state.store_size_bytes()

    def test_pivot_clamped_to_genesis(self, rng):
        peer, joiner = self.build_account_peer(rng, blocks=3)
        assert joiner.state_sync_from(peer, keep_depth=1024) == 3
        assert joiner.chain.cemented_height == 0
        assert joiner.stats.blocks_accepted == 3  # every body replayed
