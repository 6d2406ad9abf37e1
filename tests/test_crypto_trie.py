"""Tests for repro.crypto.trie (Ethereum state structures, Section II/V)."""

import random

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.common.errors import PrunedHistoryError, ValidationError
from repro.crypto.trie import EMPTY_TRIE_ROOT, MerklePatriciaTrie


class TestBasicOperations:
    def test_empty_root_is_sentinel(self):
        assert MerklePatriciaTrie().root_hash == EMPTY_TRIE_ROOT

    def test_get_missing_returns_none(self):
        assert MerklePatriciaTrie().get(b"missing") is None

    def test_put_get(self):
        t = MerklePatriciaTrie()
        t.put(b"key", b"value")
        assert t.get(b"key") == b"value"

    def test_overwrite(self):
        t = MerklePatriciaTrie()
        t.put(b"k", b"v1")
        t.put(b"k", b"v2")
        assert t.get(b"k") == b"v2"

    def test_prefix_keys_coexist(self):
        t = MerklePatriciaTrie()
        t.put(b"ab", b"1")
        t.put(b"abc", b"2")
        t.put(b"a", b"3")
        assert t.get(b"ab") == b"1"
        assert t.get(b"abc") == b"2"
        assert t.get(b"a") == b"3"

    def test_contains(self):
        t = MerklePatriciaTrie()
        t.put(b"x", b"1")
        assert b"x" in t and b"y" not in t

    def test_len_counts_live_entries(self):
        t = MerklePatriciaTrie()
        for i in range(5):
            t.put(bytes([i]), b"v")
        assert len(t) == 5

    def test_items_sorted_round_trip(self):
        t = MerklePatriciaTrie()
        data = {bytes([i, j]): bytes([i + j]) for i in range(4) for j in range(4)}
        for k, v in data.items():
            t.put(k, v)
        assert dict(t.items()) == data

    def test_non_bytes_value_rejected(self):
        with pytest.raises(TypeError):
            MerklePatriciaTrie().put(b"k", "str")  # type: ignore[arg-type]


class TestDelete:
    def test_delete_restores_empty_root(self):
        t = MerklePatriciaTrie()
        t.put(b"k", b"v")
        t.delete(b"k")
        assert t.root_hash == EMPTY_TRIE_ROOT

    def test_delete_missing_is_noop(self):
        t = MerklePatriciaTrie()
        t.put(b"k", b"v")
        root = t.root_hash
        t.delete(b"missing")
        assert t.root_hash == root

    def test_delete_leaves_siblings(self):
        t = MerklePatriciaTrie()
        t.put(b"aa", b"1")
        t.put(b"ab", b"2")
        t.delete(b"aa")
        assert t.get(b"aa") is None
        assert t.get(b"ab") == b"2"


class TestRootDeterminism:
    def test_insertion_order_irrelevant(self):
        # The state-root property: same contents, same root.
        a = MerklePatriciaTrie()
        b = MerklePatriciaTrie()
        pairs = [(bytes([i]), bytes([i * 2])) for i in range(20)]
        for k, v in pairs:
            a.put(k, v)
        for k, v in reversed(pairs):
            b.put(k, v)
        assert a.root_hash == b.root_hash

    def test_delete_restores_prior_root(self):
        t = MerklePatriciaTrie()
        t.put(b"base", b"1")
        root_before = t.root_hash
        t.put(b"extra", b"2")
        t.delete(b"extra")
        assert t.root_hash == root_before

    def test_root_reflects_value_change(self):
        t = MerklePatriciaTrie()
        t.put(b"k", b"v1")
        r1 = t.root_hash
        t.put(b"k", b"v2")
        assert t.root_hash != r1


class TestHistory:
    def test_old_roots_remain_readable(self):
        t = MerklePatriciaTrie()
        t.put(b"acct", b"balance=10")
        old_root = t.root_hash
        t.put(b"acct", b"balance=20")
        view = t.checkout(old_root)
        assert view.get(b"acct") == b"balance=10"
        assert t.get(b"acct") == b"balance=20"

    def test_set_root_rolls_back(self):
        t = MerklePatriciaTrie()
        t.put(b"a", b"1")
        old = t.root_hash
        t.put(b"b", b"2")
        t.set_root(old)
        assert t.get(b"b") is None
        assert t.get(b"a") == b"1"

    def test_set_root_unknown_raises(self):
        from repro.common.types import Hash

        with pytest.raises(KeyError):
            MerklePatriciaTrie().set_root(Hash(b"\x01" * 32))

    def test_export_of_pruned_root_raises(self):
        t = MerklePatriciaTrie()
        t.put(b"a", b"1")
        old = t.root_hash
        t.put(b"a", b"2")
        t.prune([t.root_hash])
        with pytest.raises(PrunedHistoryError):
            t.export_snapshot(old)

    def test_set_root_to_empty(self):
        t = MerklePatriciaTrie()
        t.put(b"a", b"1")
        t.set_root(EMPTY_TRIE_ROOT)
        assert t.get(b"a") is None

    def test_prune_keeps_current_root(self):
        t = MerklePatriciaTrie()
        for i in range(30):
            t.put(b"hot", bytes([i]))
            t.root_hash  # each read root is a stored version
        freed = t.prune([t.root_hash])
        assert freed > 0
        assert t.get(b"hot") == bytes([29])

    def test_prune_drops_old_versions(self):
        t = MerklePatriciaTrie()
        t.put(b"k", b"old")
        old_root = t.root_hash
        t.put(b"k", b"new")
        t.prune([t.root_hash])
        with pytest.raises(KeyError):
            t.checkout(old_root).get(b"k")

    def test_reachable_nodes_of_empty(self):
        assert MerklePatriciaTrie().reachable_nodes(EMPTY_TRIE_ROOT) == set()

    def test_store_grows_with_history(self):
        t = MerklePatriciaTrie()
        t.put(b"k", b"0")
        size_one = t.store_size_bytes()
        for i in range(10):
            t.put(b"k", bytes([i]))
        assert t.store_size_bytes() > size_one


class TestCommitTimeHashing:
    """Nodes are hashed when a root is read, not when a key is written."""

    def test_writes_between_root_reads_are_not_stored(self):
        t = MerklePatriciaTrie()
        t.put(b"k", b"0")
        assert t.node_count() == 1
        for i in range(1, 10):
            t.put(b"k", bytes([i]))
        assert t.node_count() == 2  # only the version that was read

    def test_reads_see_uncommitted_writes(self):
        t = MerklePatriciaTrie()
        t.put(b"ab", b"1")
        t.root_hash
        t.put(b"ac", b"2")
        t.delete(b"ab")
        assert dict(t.items()) == {b"ac": b"2"}
        assert t.get(b"ab") is None and b"ac" in t and len(t) == 1

    def test_set_root_drops_uncommitted_writes(self):
        t = MerklePatriciaTrie()
        t.put(b"a", b"1")
        root, nodes = t.root_hash, t.node_count()
        t.put(b"b", b"2")
        t.set_root(root)
        assert t.root_hash == root and t.node_count() == nodes
        assert t.get(b"b") is None

    def test_committed_version_is_not_mutated_by_later_writes(self):
        t = MerklePatriciaTrie()
        for i in range(40):
            t.put(bytes([i, i]), b"old")
        old_root = t.root_hash
        for i in range(40):
            t.put(bytes([i, i]), b"new")
            t.delete(bytes([i + 1, i + 1]))
        assert t.root_hash != old_root
        assert all(v == b"old" for _, v in t.checkout(old_root).items())
        assert len(list(t.checkout(old_root).items())) == 40

    def test_size_accounting_matches_reencoding(self):
        t = MerklePatriciaTrie()
        rng = random.Random(7)
        for step in range(300):
            t.put(rng.randbytes(2), rng.randbytes(rng.randrange(1, 30)))
            if step % 25 == 0:
                t.root_hash
        total = t.store_size_bytes()  # commits the tail of the script
        reencoded = {h: len(n.encode()) for h, n in t._nodes.items()}
        assert total == sum(reencoded.values())
        live = t.reachable_nodes(t.root_hash)
        assert t.version_size_bytes(t.root_hash) == sum(reencoded[h] for h in live)
        freed = t.prune([t.root_hash])
        assert freed == sum(size for h, size in reencoded.items() if h not in live)
        assert t.store_size_bytes() == sum(len(n.encode()) for n in t._nodes.values())

    def test_golden_roots_of_a_mixed_script(self):
        # Captured on the write-time-hashing implementation (PR 11): the
        # node encoding, and so every state root, must stay byte-identical.
        rng = random.Random(20180702)
        t = MerklePatriciaTrie()
        keys = [rng.randbytes(rng.choice((1, 2, 3, 21, 53))) for _ in range(160)]
        roots = []
        for step in range(500):
            key = rng.choice(keys)
            if rng.random() < 0.3:
                t.delete(key)
            else:
                t.put(key, rng.randbytes(rng.randrange(1, 40)))
            if step % 100 == 99:
                roots.append(t.root_hash.hex)
        assert roots == [
            "0433c9839341dd9c51e021856cedc084dd58186b7bf19975a09a33886f25c638",
            "f445472a85811a06f7484f82398c1f0c4deffa8bf07f9281e5a9a43ec37f03e1",
            "7c80c4d0687afd0c6e600f8421312f3316d08886a2190bdf3bc8585391c23894",
            "98fd96fd70381b133cc2475bf9bd2773f4b4f7e8997ab4e216d5fd28103a9c34",
            "62eb02d5d1d597f4804179a1515d72a5bda2fc3eb7837d3d5d8ea16ec98bdbfa",
        ]


class TestProofs:
    def test_inclusion_proof(self):
        t = MerklePatriciaTrie()
        for i in range(50):
            t.put(bytes([i]), bytes([i]))
        proof = t.prove(bytes([7]))
        assert proof.value == bytes([7])
        assert MerklePatriciaTrie.verify_proof(t.root_hash, proof)

    def test_exclusion_proof(self):
        t = MerklePatriciaTrie()
        t.put(b"present", b"1")
        proof = t.prove(b"absent")
        assert proof.value is None
        assert MerklePatriciaTrie.verify_proof(t.root_hash, proof)

    def test_proof_rejected_against_other_root(self):
        t = MerklePatriciaTrie()
        t.put(b"k", b"v")
        proof = t.prove(b"k")
        other = MerklePatriciaTrie()
        other.put(b"k", b"different")
        assert not MerklePatriciaTrie.verify_proof(other.root_hash, proof)

    def test_empty_trie_proof(self):
        t = MerklePatriciaTrie()
        proof = t.prove(b"anything")
        assert MerklePatriciaTrie.verify_proof(t.root_hash, proof)


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(
        st.binary(min_size=1, max_size=8), st.binary(min_size=1, max_size=8),
        min_size=1, max_size=40,
    ),
)
def test_trie_behaves_like_dict(model):
    """Property: after arbitrary puts, the trie equals the reference dict
    and deleting half restores exact agreement again."""
    t = MerklePatriciaTrie()
    for k, v in model.items():
        t.put(k, v)
    assert dict(t.items()) == model
    victims = list(model)[::2]
    for k in victims:
        t.delete(k)
        del model[k]
    assert dict(t.items()) == model


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.binary(min_size=1, max_size=6), st.binary(min_size=1, max_size=4)),
        min_size=1, max_size=30,
    )
)
def test_root_is_content_addressed(ops):
    """Property: the root depends only on final contents, not history."""
    final = {}
    trie_with_history = MerklePatriciaTrie()
    for k, v in ops:
        trie_with_history.put(k, v)
        final[k] = v
    fresh = MerklePatriciaTrie()
    for k, v in final.items():
        fresh.put(k, v)
    assert trie_with_history.root_hash == fresh.root_hash


# Few distinct bytes and short keys, so keys share prefixes, end inside
# one another and collide: every split/collapse shape gets exercised.
_machine_keys = st.lists(
    st.sampled_from([0x00, 0x01, 0x10, 0x11, 0xFF]), max_size=3
).map(bytes)


class TrieMachine(RuleBasedStateMachine):
    """put / delete / read-root / set_root / checkout / prove / prune /
    snapshot export + adopt against a ``dict``, with the oracle that a root equals the root of a
    fresh trie rebuilt from the model's items."""

    def __init__(self):
        super().__init__()
        self.trie = MerklePatriciaTrie()
        self.model = {}
        self.remembered = {}  # committed root -> the contents it commits to

    def _pick_root(self, index):
        roots = sorted(self.remembered, key=bytes)
        return roots[index % len(roots)]

    @rule(key=_machine_keys, value=st.binary(min_size=1, max_size=3))
    def put(self, key, value):
        self.trie.put(key, value)
        self.model[key] = value

    @rule(key=_machine_keys)
    def delete(self, key):
        self.trie.delete(key)
        self.model.pop(key, None)

    @rule()
    def read_root(self):
        root = self.trie.root_hash
        fresh = MerklePatriciaTrie()
        for key, value in self.model.items():
            fresh.put(key, value)
        assert root == fresh.root_hash
        assert self.trie.store_size_bytes() == sum(
            len(node.encode()) for node in self.trie._nodes.values()
        )
        self.remembered[root] = dict(self.model)

    @precondition(lambda self: self.remembered)
    @rule(index=st.integers(min_value=0))
    def set_root(self, index):
        root = self._pick_root(index)
        self.trie.set_root(root)
        self.model = dict(self.remembered[root])

    @precondition(lambda self: self.remembered)
    @rule(index=st.integers(min_value=0))
    def checkout(self, index):
        root = self._pick_root(index)
        view = self.trie.checkout(root)
        assert view.root_hash == root
        assert dict(view.items()) == self.remembered[root]

    @rule(key=_machine_keys)
    def prove(self, key):
        proof = self.trie.prove(key)
        assert proof.value == self.model.get(key)
        assert MerklePatriciaTrie.verify_proof(self.trie.root_hash, proof)

    @precondition(lambda self: self.remembered)
    @rule(index=st.integers(min_value=0))
    def adopt_snapshot(self, index):
        root = self._pick_root(index)
        fresh = MerklePatriciaTrie()
        fresh.adopt_snapshot(root, self.trie.export_snapshot(root))
        assert fresh.root_hash == root
        assert dict(fresh.items()) == self.remembered[root]
        assert fresh.store_size_bytes() == self.trie.version_size_bytes(root)

    @precondition(lambda self: set(self.remembered) - {EMPTY_TRIE_ROOT})
    @rule(index=st.integers(min_value=0), victim=st.integers(min_value=0),
          drop=st.booleans())
    def adopt_tampered_snapshot(self, index, victim, drop):
        roots = sorted(set(self.remembered) - {EMPTY_TRIE_ROOT}, key=bytes)
        root = roots[index % len(roots)]
        nodes = self.trie.export_snapshot(root)
        key = sorted(nodes, key=bytes)[victim % len(nodes)]
        if drop:
            del nodes[key]
        else:
            nodes[key] = nodes[key][:-1] + bytes([nodes[key][-1] ^ 1])
        fresh = MerklePatriciaTrie()
        with pytest.raises(ValidationError):
            fresh.adopt_snapshot(root, nodes)
        assert fresh.node_count() == 0 and fresh.root_hash == EMPTY_TRIE_ROOT

    @rule(keep=st.sets(st.integers(min_value=0), max_size=2))
    def prune(self, keep):
        kept = {self._pick_root(i) for i in keep} if self.remembered else set()
        kept.add(self.trie.root_hash)
        before = self.trie.store_size_bytes()
        freed = self.trie.prune(sorted(kept, key=bytes))
        assert self.trie.store_size_bytes() == before - freed
        self.remembered = {
            root: items for root, items in self.remembered.items() if root in kept
        }
        self.remembered[self.trie.root_hash] = dict(self.model)

    @invariant()
    def reads_match_the_model(self):
        # Reads go through the dirty overlay and must not commit it.
        assert dict(self.trie.items()) == self.model
        for key in self.model:
            assert self.trie.get(key) == self.model[key]


TrieMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestTrieMachine = TrieMachine.TestCase
