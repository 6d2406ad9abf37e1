"""E7 (§V-A): Bitcoin pruning and Ethereum fast sync.

Reproduces both remedies on real serialized ledgers: pruning discards
old block bodies (disk saved, history-serving lost); fast sync joins an
account chain from headers + one verified state snapshot at the pivot +
the recent bodies instead of replaying history, leaving "a database
pruned of the state deltas".  E7b reads the join's own counters.
"""

import time

from conftest import report

from repro.core.experiment import EXPERIMENTS
from repro.runner import make_result
from repro.common.units import format_bytes
from repro.crypto.keys import KeyPair
from repro.crypto.pow import MAX_TARGET
from repro.blockchain.block import assemble_block, build_genesis_block
from repro.blockchain.chain import ChainStore
from repro.blockchain.node import BlockchainNode
from repro.blockchain.params import ETHEREUM
from repro.blockchain.transaction import make_coinbase, sign_account_transaction
from repro.storage.pruning import prune_chain
from repro.metrics.tables import render_table


def build_utxo_chain(blocks=300, txs_per_block=8):
    key = KeyPair.from_seed(b"\x05" * 32)
    store = ChainStore(build_genesis_block(key.address, 10**9))
    parent = store.genesis
    for height in range(1, blocks + 1):
        body = [make_coinbase(key.address, 50, nonce=height * 100 + i)
                for i in range(txs_per_block)]
        block = assemble_block(parent.header, body, float(height), MAX_TARGET)
        store.add_block(block)
        parent = block
    return store


def build_account_join(blocks=150, pivot_window=64):
    """An account chain of one payment per block on a peer, pruned like
    Bitcoin, and a fresh replica that fast-syncs from it."""
    alice = KeyPair.from_seed(b"\x06" * 32)
    bob = KeyPair.from_seed(b"\x07" * 32)
    miner = KeyPair.from_seed(b"\x08" * 32)
    genesis = build_genesis_block(miner.address, 1)
    allocations = {alice.address: 10**15}
    peer = BlockchainNode("peer", ETHEREUM, genesis, genesis_allocations=allocations)
    for height in range(1, blocks + 1):
        peer.mempool.add(sign_account_transaction(alice, height - 1, bob.address, 100,
                                                  gas_price=1))
        peer.receive_block(peer.create_block_template(float(height), miner.address))
    history_bytes = sum(b.size_bytes for b in peer.chain.main_chain()[1:])
    history_txs = sum(len(b.transactions) for b in peer.chain.main_chain()[1:])
    prune_chain(peer.chain, keep_depth=pivot_window)
    joiner = BlockchainNode("joiner", ETHEREUM, genesis, genesis_allocations=allocations)
    joiner.state_sync_from(peer, keep_depth=pivot_window)
    replayed = sum(len(b.transactions) for b in joiner.chain.main_chain()[1:])
    return peer, joiner, history_bytes, history_txs, replayed


def test_e7_bitcoin_pruning(benchmark):
    store = build_utxo_chain()
    result = benchmark.pedantic(
        lambda: prune_chain(build_utxo_chain(), keep_depth=50), rounds=3, iterations=1
    )
    rows = [
        ["size before", format_bytes(result.size_before)],
        ["size after", format_bytes(result.size_after)],
        ["freed", f"{format_bytes(result.bytes_freed)} ({result.fraction_freed:.0%})"],
        ["blocks pruned / kept", f"{result.blocks_pruned} / {result.keep_depth}"],
    ]
    # Most of the disk is old bodies; headers and the recent window stay.
    assert result.fraction_freed > 0.6
    assert result.blocks_pruned == 300 - 50 + 1
    report("E7a Bitcoin block-file pruning", render_table(["metric", "value"], rows))


def test_e7_ethereum_state_sync(benchmark):
    peer, joiner, history_bytes, history_txs, replayed = benchmark.pedantic(
        build_account_join, rounds=1, iterations=1)
    assert joiner.chain.head.block_id == peer.chain.head.block_id
    assert joiner.state.root_hash == peer.state.root_hash
    synced = joiner.transport.counters.state_sync_bytes
    joiner_trie, peer_trie = joiner.state.store_size_bytes(), peer.state.store_size_bytes()
    rows = [
        ["full history (replay) download", format_bytes(history_bytes)],
        ["full history txs", history_txs],
        ["fast sync download", format_bytes(synced)],
        ["fast sync txs replayed", replayed],
        ["joiner trie store", format_bytes(joiner_trie)],
        ["peer trie store (every per-block delta)", format_bytes(peer_trie)],
    ]
    # The joiner replays only the post-pivot window and never stores the
    # peer's per-block state deltas below the pivot.
    assert replayed == 64
    assert history_txs - replayed > 80
    assert synced < history_bytes
    assert joiner_trie < peer_trie
    report("E7b Ethereum fast sync at pivot head-64", render_table(["metric", "value"], rows))


def run(params: dict, seed: int) -> dict:
    """Uniform sweep entry point (see repro.runner.spec)."""
    started = time.perf_counter()
    p = {**dict(EXPERIMENTS["E7"].default_params), **(params or {})}
    store = build_utxo_chain(blocks=p["blocks"], txs_per_block=p["txs_per_block"])
    pruned = prune_chain(store, keep_depth=p["keep_depth"])
    peer, joiner, history_bytes, history_txs, replayed = build_account_join(
        pivot_window=p["pivot_window"])
    metrics = {
        "prune_fraction_freed": pruned.fraction_freed,
        "blocks_pruned": pruned.blocks_pruned,
        "fastsync_replay_saved": history_txs - replayed,
        "fastsync_download_ratio":
            joiner.transport.counters.state_sync_bytes / history_bytes,
        "fastsync_trie_share":
            joiner.state.store_size_bytes() / peer.state.store_size_bytes(),
    }
    return make_result("E7", p, seed, metrics, started=started)


if __name__ == "__main__":
    from conftest import bench_main

    bench_main(run)
