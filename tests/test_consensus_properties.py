"""Property-based consensus invariants.

The deep guarantees the paper's comparison rests on: fork choice is a
pure function of the block *set* (not arrival order, beyond tie-breaks),
value is conserved through any reorg sequence, and replicas that saw the
same blocks agree.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.keys import KeyPair
from repro.crypto.pow import MAX_TARGET
from repro.blockchain.block import assemble_block, build_genesis_block
from repro.blockchain.chain import ChainStore
from repro.blockchain.node import BlockchainNode
from repro.blockchain.params import BITCOIN
from repro.blockchain.transaction import make_coinbase


def build_block_tree(seed, depth=6, fork_probability=0.45):
    """A random tree of blocks over a shared genesis.

    Returns (genesis, blocks) with blocks in a valid parent-first order.
    """
    rng = random.Random(seed)
    key = KeyPair.from_seed(bytes([seed % 250 + 1]) * 32)
    genesis = build_genesis_block(key.address, 1000)
    frontier = [genesis]
    blocks = []
    nonce = 0
    for level in range(depth):
        next_frontier = []
        for parent in frontier:
            children = 2 if rng.random() < fork_probability else 1
            for _ in range(children):
                nonce += 1
                block = assemble_block(
                    parent.header,
                    [make_coinbase(key.address, 1, nonce=nonce)],
                    float(level + 1),
                    MAX_TARGET,
                )
                blocks.append(block)
                next_frontier.append(block)
        # Bound the tree's width.
        frontier = next_frontier[:4]
    return genesis, blocks


def replica_fed(genesis, blocks):
    """A validating node that received ``blocks`` in this order by gossip
    (a child ahead of its parent waits in the intake layer)."""
    node = BlockchainNode("replica", BITCOIN, genesis)
    for block in blocks:
        node.receive_block(block)
    return node


class TestArrivalOrderIndependence:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000), shuffle=st.randoms())
    def test_same_height_any_order(self, seed, shuffle):
        """Property: whatever order blocks arrive in (parents eventually
        before children via the intake layer), the final main-chain
        *height* is the depth of the tree — fork choice found the longest
        branch."""
        genesis, blocks = build_block_tree(seed)
        expected_height = max(b.height for b in blocks)

        arrival = list(blocks)
        shuffle.shuffle(arrival)
        node = replica_fed(genesis, arrival)
        assert node.chain.height == expected_height
        assert len(node.intake) == 0
        assert len(node.chain) == len(blocks) + 1

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_parent_first_order_is_canonical(self, seed):
        """Property: with equal-work blocks, delivering parent-first gives
        a main chain whose every prefix is heaviest-or-first-seen; all
        chains reported by ``main_chain()`` are actually linked."""
        genesis, blocks = build_block_tree(seed)
        store = ChainStore(genesis)
        for block in blocks:
            store.add_block(block)
        chain = store.main_chain()
        for parent, child in zip(chain, chain[1:]):
            assert child.parent_id == parent.block_id
            assert child.height == parent.height + 1

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000), data=st.data())
    def test_two_replicas_same_blocks_same_depth_agreement(self, seed, data):
        """Property: two replicas fed the same blocks in different orders
        agree on every block below the deepest fork point (their heads
        may differ only within the unresolved tie at the tip)."""
        genesis, blocks = build_block_tree(seed)
        order_a = data.draw(st.permutations(blocks))
        order_b = data.draw(st.permutations(blocks))
        replica_a = replica_fed(genesis, order_a).chain
        replica_b = replica_fed(genesis, order_b).chain
        assert replica_a.height == replica_b.height
        # Agreement holds wherever a height has a unique heaviest block;
        # equal-work ties at the same height may legitimately differ
        # (first-seen rule).  Verify the *work* of the chosen chains ties.
        work_a = replica_a.cumulative_work(replica_a.head.block_id)
        work_b = replica_b.cumulative_work(replica_b.head.block_id)
        assert work_a == pytest.approx(work_b)


class TestLatticeProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=9_999),
        ops=st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=12),
    )
    def test_rollback_is_inverse_of_process(self, seed, ops):
        """Property: processing then rolling back any suffix of sends
        restores balances exactly (the election-loser path)."""
        from repro.dag.blocks import make_send
        from repro.dag.lattice import Lattice
        from repro.dag.params import NanoParams

        rng = random.Random(seed)
        lattice = Lattice(NanoParams(work_difficulty=1))
        genesis_key = KeyPair.generate(rng)
        lattice.create_genesis(genesis_key, 10**9)
        recipient = KeyPair.generate(rng)

        sends = []
        for amount in ops:
            send = make_send(
                genesis_key,
                lattice.chain(genesis_key.address).head,
                recipient.address,
                amount,
                work_difficulty=1,
            )
            lattice.process(send)
            sends.append(send)
        # Roll back from a random cut point.
        cut = rng.randrange(len(sends))
        lattice.rollback(sends[cut].block_hash)
        expected_balance = 10**9 - sum(ops[:cut])
        assert lattice.balance(genesis_key.address) == expected_balance
        assert lattice.total_supply() == 10**9
        assert lattice.pending_count() == cut
