#!/usr/bin/env python3
"""Ledger size and pruning, all three remedies (paper §V).

Grows a UTXO chain, an account chain, and a block-lattice under similar
payment traffic, then applies each system's remedy: Bitcoin block-file
pruning, Ethereum fast sync with state-delta pruning, and Nano's prune-
to-heads — printing the before/after disk story.  The Ethereum row is a
real join: a fresh replica state-syncs from the pruned peer.

Run:  python examples/ledger_pruning.py
"""

from repro.common.units import format_bytes
from repro.crypto.keys import KeyPair
from repro.crypto.pow import MAX_TARGET
from repro.blockchain.block import assemble_block, build_genesis_block
from repro.blockchain.chain import ChainStore
from repro.blockchain.node import BlockchainNode
from repro.blockchain.params import ETHEREUM
from repro.blockchain.transaction import make_coinbase, sign_account_transaction
from repro.dag.blocks import make_open, make_receive, make_send
from repro.dag.lattice import Lattice
from repro.dag.params import NanoParams
from repro.metrics.tables import render_table
from repro.storage.dag_pruning import footprint_by_type, prune_lattice
from repro.storage.pruning import prune_chain


def bitcoin_story() -> list:
    key = KeyPair.from_seed(b"\x11" * 32)
    store = ChainStore(build_genesis_block(key.address, 10**9))
    parent = store.genesis
    for height in range(1, 401):
        body = [make_coinbase(key.address, 50, nonce=height * 10 + i)
                for i in range(6)]
        block = assemble_block(parent.header, body, float(height), MAX_TARGET)
        store.add_block(block)
        parent = block
    result = prune_chain(store, keep_depth=50)
    return ["bitcoin (prune mode)", format_bytes(result.size_before),
            format_bytes(result.size_after), f"{result.fraction_freed:.0%}"]


def ethereum_story() -> list:
    alice = KeyPair.from_seed(b"\x12" * 32)
    bob = KeyPair.from_seed(b"\x13" * 32)
    miner = KeyPair.from_seed(b"\x14" * 32)
    genesis = build_genesis_block(miner.address, 1)
    allocations = {alice.address: 10**15}
    peer = BlockchainNode("peer", ETHEREUM, genesis, genesis_allocations=allocations)
    for height in range(1, 201):
        peer.mempool.add(sign_account_transaction(alice, height - 1, bob.address, 100,
                                                  gas_price=1))
        peer.receive_block(peer.create_block_template(float(height), miner.address))
    before = peer.chain.total_size_bytes() + peer.state.store_size_bytes()
    prune_chain(peer.chain, keep_depth=64)
    joiner = BlockchainNode("joiner", ETHEREUM, genesis, genesis_allocations=allocations)
    joiner.state_sync_from(peer, keep_depth=64)
    after = joiner.chain.total_size_bytes() + joiner.state.store_size_bytes()
    replayed = sum(len(b.transactions) for b in joiner.chain.main_chain()[1:])
    print(f"  ethereum fast sync: replay {replayed} txs instead of 200; "
          f"download {format_bytes(joiner.transport.counters.state_sync_bytes)}")
    return ["ethereum (fast sync)", format_bytes(before),
            format_bytes(after), f"{1 - after / before:.0%}"]


def nano_story() -> list:
    import random

    rng = random.Random(0)
    lattice = Lattice(NanoParams(work_difficulty=1))
    genesis_key = KeyPair.generate(rng)
    lattice.create_genesis(genesis_key, 10**15)
    users = []
    for _ in range(15):
        user = KeyPair.generate(rng)
        send = make_send(genesis_key, lattice.chain(genesis_key.address).head,
                         user.address, 10**9, work_difficulty=1)
        lattice.process(send)
        lattice.process(make_open(user, send.block_hash, 10**9,
                                  representative=genesis_key.address,
                                  work_difficulty=1))
        users.append(user)
    for _ in range(300):
        a, b = rng.sample(users, 2)
        amount = rng.randint(1, 500)
        send = make_send(a, lattice.chain(a.address).head, b.address, amount,
                         work_difficulty=1)
        lattice.process(send)
        lattice.process(make_receive(b, lattice.chain(b.address).head,
                                     send.block_hash, amount, work_difficulty=1))
    footprints = footprint_by_type(lattice)
    print("  nano node types: historical "
          f"{format_bytes(footprints['historical'])}, current "
          f"{format_bytes(footprints['current'])}, light 0 B")
    before = lattice.serialized_size()
    result = prune_lattice(lattice)
    return ["nano (prune to heads)", format_bytes(before),
            format_bytes(result.bytes_after), f"{result.fraction_freed:.0%}"]


def main() -> None:
    print("Growing three ledgers and applying each system's remedy...\n")
    rows = [bitcoin_story(), ethereum_story(), nano_story()]
    print()
    print(render_table(
        ["system", "before", "after", "freed"], rows,
        title="§V ledger pruning, three ways",
    ))
    print(
        "\nNano's balance-carrying blocks make almost all history\n"
        "discardable; Bitcoin keeps headers + a relay window; Ethereum\n"
        "replaces replay with one recent state snapshot."
    )


if __name__ == "__main__":
    main()
