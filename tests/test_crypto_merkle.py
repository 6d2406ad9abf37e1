"""Tests for repro.crypto.merkle (Section II-A structures)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import sha256d
from repro.crypto.merkle import MerkleTree, merkle_root


def leaves(n):
    return [sha256d(bytes([i])) for i in range(n)]


class TestMerkleTree:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MerkleTree([])

    def test_single_leaf_root_is_leaf(self):
        (leaf,) = leaves(1)
        assert MerkleTree([leaf]).root == leaf

    def test_two_leaves(self):
        a, b = leaves(2)
        tree = MerkleTree([a, b])
        assert tree.root != a and tree.root != b
        assert tree.depth == 1

    def test_odd_leaf_duplication(self):
        # Bitcoin rule: [a, b, c] hashes like [a, b, c, c].
        a, b, c = leaves(3)
        assert MerkleTree([a, b, c]).root == MerkleTree([a, b, c, c]).root

    def test_root_changes_with_any_leaf(self):
        base = MerkleTree(leaves(8)).root
        tampered = leaves(8)
        tampered[3] = sha256d(b"tampered")
        assert MerkleTree(tampered).root != base

    def test_root_changes_with_order(self):
        ls = leaves(4)
        swapped = [ls[1], ls[0]] + ls[2:]
        assert MerkleTree(ls).root != MerkleTree(swapped).root

    def test_from_items(self):
        tree = MerkleTree([sha256d(item) for item in (b"tx1", b"tx2")])
        assert tree.leaf_count == 2

    def test_merkle_root_helper_matches_tree(self):
        ls = leaves(7)
        assert merkle_root(ls) == MerkleTree(ls).root

    def test_merkle_root_empty_rejected(self):
        with pytest.raises(ValueError):
            merkle_root([])


class TestMerkleProof:
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 8, 13, 33])
    def test_every_leaf_provable(self, count):
        tree = MerkleTree(leaves(count))
        for index in range(count):
            assert tree.proof(index).verify(tree.root)

    def test_proof_fails_against_wrong_root(self):
        tree = MerkleTree(leaves(8))
        other = MerkleTree(leaves(9))
        assert not tree.proof(0).verify(other.root)

    def test_proof_out_of_range(self):
        tree = MerkleTree(leaves(4))
        with pytest.raises(IndexError):
            tree.proof(4)
        with pytest.raises(IndexError):
            tree.proof(-1)

    def test_proof_length_is_logarithmic(self):
        tree = MerkleTree(leaves(64))
        assert len(tree.proof(0).steps) == 6

    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=40), st.data())
    def test_proof_round_trip_property(self, count, data):
        tree = MerkleTree(leaves(count))
        index = data.draw(st.integers(min_value=0, max_value=count - 1))
        proof = tree.proof(index)
        assert proof.verify(tree.root)
        assert proof.compute_root() == tree.root
