"""Tests for repro.blockchain.chain (fork choice & reorgs, Section IV-A)."""

import pytest

from repro.common.errors import CementedBlockError, UnknownParentError, ValidationError
from repro.crypto.pow import MAX_TARGET
from repro.blockchain.block import assemble_block, build_genesis_block
from repro.blockchain.chain import ChainStore
from repro.blockchain.node import BlockchainNode
from repro.blockchain.params import BITCOIN
from repro.blockchain.transaction import make_coinbase


def extend(chain_store, parent_block, keypair, nonce, target=MAX_TARGET, timestamp=None):
    """Mine a trivial child of ``parent_block`` and add it."""
    block = assemble_block(
        parent=parent_block.header,
        transactions=[make_coinbase(keypair.address, 50, nonce=nonce)],
        timestamp=timestamp if timestamp is not None else parent_block.header.timestamp + 1,
        target=target,
    )
    result = chain_store.add_block(block)
    return block, result


def parent_and_child(genesis, keypair):
    """Two blocks above ``genesis``, the second on the first."""
    a = assemble_block(
        genesis.header, [make_coinbase(keypair.address, 1, nonce=1)], 1.0, MAX_TARGET
    )
    b = assemble_block(a.header, [make_coinbase(keypair.address, 1, nonce=2)], 2.0, MAX_TARGET)
    return a, b


@pytest.fixture
def chain(keypair):
    genesis = build_genesis_block(keypair.address, 1000)
    return ChainStore(genesis), genesis


class TestBasics:
    def test_requires_genesis(self, keypair):
        genesis = build_genesis_block(keypair.address, 1000)
        child = assemble_block(
            genesis.header, [make_coinbase(keypair.address, 1, nonce=1)], 1.0, MAX_TARGET
        )
        with pytest.raises(ValidationError):
            ChainStore(child)

    def test_linear_extension(self, chain, keypair):
        store, genesis = chain
        block, result = extend(store, genesis, keypair, nonce=1)
        assert result.extended_main and not result.is_reorg
        assert store.head == block
        assert store.height == 1

    def test_duplicate_ignored(self, chain, keypair):
        store, genesis = chain
        block, _ = extend(store, genesis, keypair, nonce=1)
        again = store.add_block(block)
        assert not again.block_accepted

    def test_height_mismatch_rejected(self, chain, keypair):
        store, genesis = chain
        bad = assemble_block(
            genesis.header, [make_coinbase(keypair.address, 1, nonce=1)], 1.0, MAX_TARGET
        )
        bad = type(bad)(
            header=type(bad.header)(
                parent_id=bad.header.parent_id,
                merkle_root=bad.header.merkle_root,
                timestamp=bad.header.timestamp,
                height=5,  # wrong
                target=bad.header.target,
            ),
            transactions=bad.transactions,
        )
        with pytest.raises(ValidationError):
            store.add_block(bad)

    def test_confirmations_count_from_tip(self, chain, keypair):
        store, genesis = chain
        first, _ = extend(store, genesis, keypair, nonce=1)
        prev = first
        for n in range(2, 7):
            prev, _ = extend(store, prev, keypair, nonce=n)
        assert store.confirmations(first.block_id) == 6
        assert store.confirmations(store.head.block_id) == 1
        assert store.confirmations(genesis.block_id) == 7


class TestForksAndReorgs:
    def test_side_branch_does_not_move_head(self, chain, keypair):
        store, genesis = chain
        main, _ = extend(store, genesis, keypair, nonce=1)
        side, result = extend(store, genesis, keypair, nonce=2)
        assert not result.extended_main
        assert store.head == main
        assert len(store.tips()) == 2  # the live soft fork of Fig. 4

    def test_longer_branch_wins(self, chain, keypair):
        store, genesis = chain
        main, _ = extend(store, genesis, keypair, nonce=1)
        side1, _ = extend(store, genesis, keypair, nonce=2)
        side2, result = extend(store, side1, keypair, nonce=3)
        assert result.is_reorg
        assert [b.block_id for b in result.rolled_back] == [main.block_id]
        assert [b.block_id for b in result.applied] == [side1.block_id, side2.block_id]
        assert store.head == side2
        assert store.reorg_count == 1
        assert store.deepest_reorg == 1

    def test_orphaned_block_off_main_chain(self, chain, keypair):
        store, genesis = chain
        main, _ = extend(store, genesis, keypair, nonce=1)
        side1, _ = extend(store, genesis, keypair, nonce=2)
        extend(store, side1, keypair, nonce=3)
        assert not store.is_on_main_chain(main.block_id)
        assert store.confirmations(main.block_id) == 0

    def test_first_seen_wins_ties(self, chain, keypair):
        store, genesis = chain
        first, _ = extend(store, genesis, keypair, nonce=1)
        extend(store, genesis, keypair, nonce=2)  # equal work, later arrival
        assert store.head == first

    def test_orphan_pool_connects_out_of_order(self, chain, keypair):
        """A child that arrives before its parent waits in the node's
        intake layer and connects when the parent does."""
        _, genesis = chain
        node = BlockchainNode("replica", BITCOIN, genesis)
        a, b = parent_and_child(genesis, keypair)
        result_b = node.receive_block(b)  # parent unknown: parked
        assert not result_b.block_accepted
        assert len(node.intake) == 1
        result_a = node.receive_block(a)  # unlocks b
        assert result_a.extended_main
        assert node.chain.head.block_id == b.block_id
        assert len(node.intake) == 0

    def test_unknown_parent_raises_and_stores_nothing(self, chain, keypair):
        store, genesis = chain
        a, b = parent_and_child(genesis, keypair)
        with pytest.raises(UnknownParentError):
            store.add_block(b)
        assert b.block_id not in store
        assert len(store) == 1
        assert store.tips() == [genesis]
        # The parent still connects, and the child after it.
        assert store.add_block(a).extended_main
        assert store.add_block(b).extended_main
        assert store.head == b

    def test_deep_reorg(self, chain, keypair):
        store, genesis = chain
        prev = genesis
        main_blocks = []
        for n in range(1, 4):
            prev, _ = extend(store, prev, keypair, nonce=n)
            main_blocks.append(prev)
        side = genesis
        for n in range(10, 14):
            side, result = extend(store, side, keypair, nonce=n)
        assert store.head == side
        assert store.deepest_reorg == 3
        assert all(not store.is_on_main_chain(b.block_id) for b in main_blocks)


class TestInvalidate:
    def test_head_falls_back_to_parent(self, chain, keypair):
        store, genesis = chain
        a, _ = extend(store, genesis, keypair, nonce=1)
        b, _ = extend(store, a, keypair, nonce=2)
        result = store.invalidate(b.block_id)
        assert not result.extended_main
        assert store.head == a and b.block_id not in store
        assert store.tips() == [a]
        # The same block may be offered again (and judged again).
        assert store.add_block(b).extended_main

    def test_subtree_goes_and_heaviest_remaining_branch_wins(self, chain, keypair):
        store, genesis = chain
        a1, _ = extend(store, genesis, keypair, nonce=1)
        a2, _ = extend(store, a1, keypair, nonce=2)
        b1, _ = extend(store, genesis, keypair, nonce=11)
        b2, _ = extend(store, b1, keypair, nonce=12)
        b3, result = extend(store, b2, keypair, nonce=13)
        assert result.is_reorg and store.head == b3
        back = store.invalidate(b2.block_id)
        assert [b.block_id for b in back.rolled_back] == [b1.block_id]
        assert [b.block_id for b in back.applied] == [a1.block_id, a2.block_id]
        assert store.head == a2
        assert b2.block_id not in store and b3.block_id not in store
        assert b1.block_id in store and not store.is_on_main_chain(b1.block_id)

    def test_side_branch_block_leaves_main_chain_alone(self, chain, keypair):
        store, genesis = chain
        a1, _ = extend(store, genesis, keypair, nonce=1)
        b1, _ = extend(store, genesis, keypair, nonce=11)
        assert not store.invalidate(b1.block_id).extended_main
        assert store.head == a1 and b1.block_id not in store


class TestCementing:
    def test_cemented_reorg_rejected(self, chain, keypair):
        store, genesis = chain
        prev = genesis
        for n in range(1, 4):
            prev, _ = extend(store, prev, keypair, nonce=n)
        store.cement(2)
        side = genesis
        side, _ = extend(store, side, keypair, nonce=20)
        side, _ = extend(store, side, keypair, nonce=21)
        side, _ = extend(store, side, keypair, nonce=22)
        with pytest.raises(CementedBlockError):
            extend(store, side, keypair, nonce=23)  # would out-weigh main

    def test_cement_unmined_height_rejected(self, chain, keypair):
        store, _ = chain
        with pytest.raises(ValueError):
            store.cement(10)


class TestSizeAccounting:
    def test_total_includes_side_branches(self, chain, keypair):
        store, genesis = chain
        extend(store, genesis, keypair, nonce=1)
        extend(store, genesis, keypair, nonce=2)
        main_chain_bytes = sum(b.size_bytes for b in store.main_chain())
        assert store.total_size_bytes() > main_chain_bytes

    def test_drop_body_frees_body_bytes(self, chain, keypair):
        store, genesis = chain
        block, _ = extend(store, genesis, keypair, nonce=1)
        freed = store.drop_body(block.block_id)
        assert freed == block.body_size_bytes
        assert store.block(block.block_id).transactions == ()
