"""Merkle-Patricia trie — Ethereum's authenticated key/value store.

Ethereum (Section II-A and V-A of the paper) keeps *three* authenticated
structures per block: the transaction trie, the receipt trie, and the
global *state trie* whose root is committed once per block.  This module
implements a hex-nibble Patricia trie with the three Ethereum node kinds
(leaf, extension, branch), content-addressed node storage, and Merkle
inclusion proofs.

Hashing happens at commit time, not at write time (the geth design):
``put``/``delete`` build un-hashed *dirty* nodes private to the current
version, and reading :attr:`MerklePatriciaTrie.root_hash` encodes, hashes
and persists each dirty node exactly once.  **Version granularity: one
persisted version per root that was read; writes between reads are never
hashed.**  A block-producing node reads the root once per block, so the
node store holds per-block state deltas — the bookkeeping Ethereum's fast
sync prunes (Section V-A): the *delta* between two roots is the set of
nodes reachable from one root but not the other
(:meth:`MerklePatriciaTrie.reachable_nodes`).
"""

from __future__ import annotations

from binascii import hexlify
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.common.encoding import Decoder
from repro.common.errors import PrunedHistoryError, ValidationError
from repro.common.types import Hash
from repro.crypto.hashing import sha256

_BRANCH_WIDTH = 16

# Node kind tags used in the canonical node encoding.
_KIND_LEAF = 0
_KIND_EXTENSION = 1
_KIND_BRANCH = 2

_EMPTY_ROOT = sha256(b"repro-empty-trie")

# Paths are ``bytes`` holding one nibble (0..15) per byte.
_HEX_DIGITS = b"0123456789abcdef"
_NIBBLE_OF_HEX = bytes.maketrans(_HEX_DIGITS, bytes(range(_BRANCH_WIDTH)))
_HEX_OF_NIBBLE = bytes.maketrans(bytes(range(_BRANCH_WIDTH)), _HEX_DIGITS)

# Fixed pieces of the canonical node encoding (4-byte big-endian length
# prefixes; an absent child/value encodes as an empty byte string).
_EMPTY = b"\x00\x00\x00\x00"
_NO_VALUE = _EMPTY + b"\x00"  # empty value, has-value flag clear
_HASH_PREFIX = (32).to_bytes(4, "big")
_LIST_PREFIX = _BRANCH_WIDTH.to_bytes(4, "big")
_NO_CHILDREN = _LIST_PREFIX + _EMPTY * _BRANCH_WIDTH


def _to_nibbles(key: bytes) -> bytes:
    return hexlify(key).translate(_NIBBLE_OF_HEX)


def _from_nibbles(nibbles: bytes) -> bytes:
    if len(nibbles) % 2 != 0:
        raise ValueError("cannot pack an odd nibble count into bytes")
    return bytes.fromhex(nibbles.translate(_HEX_OF_NIBBLE).decode("ascii"))


def _common_prefix(a: bytes, b: bytes) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


class _Node:
    """One trie node.  Exactly one interpretation per ``kind``:

    * leaf:       ``path`` is the remaining key suffix, ``value`` the payload.
    * extension:  ``path`` is a shared prefix, ``child`` the next node.
    * branch:     ``children`` is a 16-slot table, ``value`` an optional
                  payload for a key ending exactly here.

    A child reference is a :class:`Hash` (a persisted node — immutable,
    shared between versions) or a ``_Node`` (a dirty node owned by the
    current version, mutated in place until the next commit).  ``size``
    is the encoded length, set when the node is persisted.
    """

    __slots__ = ("kind", "path", "value", "child", "children", "size")

    def __init__(
        self,
        kind: int,
        path: bytes = b"",
        value: Optional[bytes] = None,
        child: "_Ref" = None,
        children: Sequence["_Ref"] = (),
    ) -> None:
        self.kind = kind
        self.path = path
        self.value = value
        self.child = child
        self.children = children
        self.size = 0

    def copy(self) -> "_Node":
        """A dirty twin of a persisted node (copy-on-write)."""
        return _Node(self.kind, self.path, self.value, self.child, list(self.children))

    def encode(self) -> bytes:
        """Canonical bytes; every child reference must be a :class:`Hash`.

        One pass, same bytes as composing the ``repro.common.encoding``
        helpers field by field: kind, path, value, has-value flag, child,
        then the 16-entry child list.
        """
        value = self.value
        parts = [
            bytes((self.kind,)),
            len(self.path).to_bytes(4, "big"),
            self.path,
        ]
        if value is None:
            parts.append(_NO_VALUE)
        else:
            parts += (len(value).to_bytes(4, "big"), value, b"\x01")
        if self.kind == _KIND_BRANCH:
            parts += (_EMPTY, _LIST_PREFIX)
            for child in self.children:
                if child is None:
                    parts.append(_EMPTY)
                else:
                    parts += (_HASH_PREFIX, child)
        elif self.child is None:
            parts += (_EMPTY, _NO_CHILDREN)
        else:
            parts += (_HASH_PREFIX, self.child, _NO_CHILDREN)
        return b"".join(parts)


_Ref = Union[Hash, _Node, None]


@dataclass(frozen=True)
class TrieProof:
    """Merkle proof: the encoded nodes on the root-to-leaf path."""

    key: bytes
    value: Optional[bytes]
    nodes: Tuple[bytes, ...]


class MerklePatriciaTrie:
    """Authenticated mapping ``bytes -> bytes`` with persistent versions.

    Writes land in a dirty-node overlay that ``get``/``items`` read
    through; reading :attr:`root_hash` commits it to the node store —
    one persisted version per root that was read; writes between reads
    are never hashed.  The store is append-only and content-addressed,
    so committed roots stay valid after updates — the behaviour Ethereum
    relies on to roll back to a pre-fork state (Section V-A).  Use
    :meth:`set_root` to return to one (dropping uncommitted writes),
    :meth:`checkout` for a read-only view of one, :meth:`prune` to
    discard nodes unreachable from a set of retained roots (the
    fast-sync "database pruned of the state deltas"), and
    :meth:`export_snapshot` / :meth:`adopt_snapshot` to move one version
    to another store (the fast-sync state download).
    """

    def __init__(self) -> None:
        self._nodes: Dict[Hash, _Node] = {}
        self._store_bytes = 0
        self._root: _Ref = None

    # ------------------------------------------------------------------ core

    @property
    def root_hash(self) -> Hash:
        """Digest committing to the current contents (empty ⇒ sentinel).

        Commits the dirty overlay: each node written since the last read
        is encoded and hashed once, children before parents.
        """
        root = self._committed_root()
        return root if root is not None else _EMPTY_ROOT

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    def get(self, key: bytes) -> Optional[bytes]:
        return _lookup(self._load, self._root, _to_nibbles(key))

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def put(self, key: bytes, value: bytes) -> None:
        """Insert/update ``key`` in the current (uncommitted) version."""
        if not isinstance(value, bytes):
            raise TypeError("trie values must be bytes")
        self._root = self._put(self._root, _to_nibbles(key), value)

    def delete(self, key: bytes) -> None:
        """Remove ``key`` from the current version if present."""
        self._root = self._delete(self._root, _to_nibbles(key))

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """All (key, value) pairs of the current version, sorted by key."""
        yield from self._walk(self._root, b"")

    # --------------------------------------------------------------- history

    def set_root(self, root: Hash) -> None:
        """Rewind/advance the *current* version to a committed root.

        Uncommitted writes are dropped.  Because the node store is
        persistent, switching roots is O(1); this is how account state
        rolls back across a chain reorg (Section IV-A) — Ethereum "keeps
        track of the deltas ... when a state needs to be rolled back".
        """
        if root == _EMPTY_ROOT:
            self._root = None
            return
        if root not in self._nodes:
            raise KeyError(f"unknown trie root {root.short()}")
        self._root = root

    def checkout(self, root: Hash) -> "TrieView":
        """Read-only view of a committed root."""
        return TrieView(self, None if root == _EMPTY_ROOT else root)

    def node_count(self) -> int:
        """Total nodes in the store, including historical versions."""
        self._committed_root()  # the current version counts
        return len(self._nodes)

    def store_size_bytes(self) -> int:
        """Serialized size of every stored node (Section V accounting)."""
        self._committed_root()  # the current version counts
        return self._store_bytes

    def version_size_bytes(self, root: Hash) -> int:
        """Serialized size of the nodes reachable from ``root``."""
        return sum(self._nodes[h].size for h in self.reachable_nodes(root))

    def reachable_nodes(self, root: Hash) -> Set[Hash]:
        """Hashes of all stored nodes reachable from a committed ``root``."""
        if root == _EMPTY_ROOT:
            return set()
        seen: Set[Hash] = set()
        stack = [root]
        while stack:
            h = stack.pop()
            if h in seen or h not in self._nodes:
                continue
            seen.add(h)
            node = self._nodes[h]
            if node.child is not None:
                stack.append(node.child)
            stack.extend(c for c in node.children if c is not None)
        return seen

    def export_snapshot(self, root: Hash) -> Dict[Hash, bytes]:
        """Fast sync's state download (Section V-A): every node reachable
        from a committed ``root``, encoded and keyed by its content
        address.  Raises :class:`PrunedHistoryError` when this store no
        longer holds ``root``."""
        if root != _EMPTY_ROOT and root not in self._nodes:
            raise PrunedHistoryError(f"trie root {root.short()} is not stored (pruned?)")
        return {h: self._nodes[h].encode() for h in self.reachable_nodes(root)}

    def adopt_snapshot(self, root: Hash, nodes: Mapping[Hash, bytes]) -> None:
        """Install a snapshot another store exported and make ``root``
        the current version.

        Every node reached from ``root`` must be present and hash to its
        key, so a dropped, altered or forged node raises
        :class:`ValidationError` before this store changes.
        """
        adopted: Dict[Hash, _Node] = {}
        stack = [] if root == _EMPTY_ROOT else [root]
        while stack:
            h = stack.pop()
            if h in adopted:
                continue
            raw = nodes.get(h)
            if raw is None or sha256(raw) != h:
                raise ValidationError(
                    f"state snapshot of {root.short()}: trie node {h.short()} "
                    + ("missing" if raw is None else "does not match its hash"))
            node = adopted[h] = _decode_node(raw)
            node.size = len(raw)
            if node.child is not None:
                stack.append(node.child)
            stack.extend(c for c in node.children if c is not None)
        for h, node in adopted.items():
            if h not in self._nodes:
                self._nodes[h] = node
                self._store_bytes += node.size
        self._root = None if root == _EMPTY_ROOT else root

    def prune(self, keep_roots: List[Hash]) -> int:
        """Discard nodes unreachable from ``keep_roots``; returns bytes freed."""
        self._committed_root()  # dirty nodes must not outlive their children
        keep: Set[Hash] = set()
        for root in keep_roots:
            keep |= self.reachable_nodes(root)
        freed = 0
        for h in [h for h in self._nodes if h not in keep]:
            freed += self._nodes.pop(h).size
        self._store_bytes -= freed
        return freed

    # ---------------------------------------------------------------- proofs

    def prove(self, key: bytes) -> TrieProof:
        """Inclusion (or exclusion) proof for ``key`` under the current root."""
        trail: List[_Node] = []  # a proof is made of hashed nodes: commit first
        value = _lookup(self._load, self._committed_root(), _to_nibbles(key), trail)
        return TrieProof(key=key, value=value, nodes=tuple(n.encode() for n in trail))

    @staticmethod
    def verify_proof(root: Hash, proof: TrieProof) -> bool:
        """Check a proof against a trusted root without the full trie."""
        if root == _EMPTY_ROOT:
            return proof.value is None and not proof.nodes
        # Rebuild a miniature node store from the supplied nodes and replay
        # the lookup; every referenced node must be present and hash-valid.
        store = {sha256(raw): _decode_node(raw) for raw in proof.nodes}
        try:
            value = _lookup(store.__getitem__, root, _to_nibbles(proof.key))
        except KeyError:
            return False  # proof incomplete
        return value == proof.value

    # ------------------------------------------------------------- internals

    def _store(self, node: _Node) -> Hash:
        raw = node.encode()
        h = sha256(raw)
        if h not in self._nodes:
            node.size = len(raw)
            self._nodes[h] = node
            self._store_bytes += node.size
        return h

    def _committed_root(self) -> Optional[Hash]:
        """The current root as a stored hash, persisting the overlay first."""
        if self._root.__class__ is _Node:
            self._root = self._commit(self._root)
        return self._root

    def _commit(self, node: _Node) -> Hash:
        """Persist a dirty subtree post-order; returns its root's hash."""
        if node.child.__class__ is _Node:
            node.child = self._commit(node.child)
        children = node.children
        for slot, child in enumerate(children):
            if child.__class__ is _Node:
                children[slot] = self._commit(child)
        return self._store(node)

    def _load(self, h: Hash) -> _Node:
        try:
            return self._nodes[h]
        except KeyError:
            raise KeyError(f"trie node {h.short()} missing (pruned?)") from None

    def _resolve(self, ref: Union[Hash, _Node]) -> _Node:
        return ref if ref.__class__ is _Node else self._load(ref)

    def _own(self, ref: Union[Hash, _Node]) -> _Node:
        """The node behind ``ref`` as one this version may mutate."""
        return ref if ref.__class__ is _Node else self._load(ref).copy()

    def _put(self, ref: _Ref, nibbles: bytes, value: bytes) -> _Node:
        if ref is None:
            return _Node(_KIND_LEAF, nibbles, value)
        node = self._own(ref)
        if node.kind == _KIND_BRANCH:
            if nibbles:
                slot = nibbles[0]
                node.children[slot] = self._put(node.children[slot], nibbles[1:], value)
            else:
                node.value = value
            return node
        if node.path == nibbles and node.kind == _KIND_LEAF:
            node.value = value
            return node
        prefix = _common_prefix(node.path, nibbles)
        if prefix == len(node.path) and node.kind == _KIND_EXTENSION:
            node.child = self._put(node.child, nibbles[prefix:], value)
            return node
        # Fork the leaf/extension where its path leaves the key's.
        branch = _Node(_KIND_BRANCH, children=[None] * _BRANCH_WIDTH)
        old_rest, new_rest = node.path[prefix:], nibbles[prefix:]
        if old_rest:
            node.path = old_rest[1:]
            keep = node.kind == _KIND_LEAF or node.path
            branch.children[old_rest[0]] = node if keep else node.child
        else:
            branch.value = node.value
        if new_rest:
            branch.children[new_rest[0]] = _Node(_KIND_LEAF, new_rest[1:], value)
        else:
            branch.value = value
        return _Node(_KIND_EXTENSION, nibbles[:prefix], child=branch) if prefix else branch

    def _delete(self, ref: _Ref, nibbles: bytes) -> _Ref:
        """``ref`` itself when the key is absent below it, so untouched
        subtrees stay shared (and clean)."""
        if ref is None:
            return None
        node = self._resolve(ref)
        if node.kind == _KIND_LEAF:
            return None if node.path == nibbles else ref
        if node.kind == _KIND_EXTENSION:
            plen = len(node.path)
            if nibbles[:plen] != node.path:
                return ref
            new_child = self._delete(node.child, nibbles[plen:])
            if new_child is node.child:
                return ref
            return self._prepend(node.path, new_child)
        if not nibbles:
            if node.value is None:
                return ref
            node = self._own(ref)
            node.value = None
        else:
            slot = nibbles[0]
            new_child = self._delete(node.children[slot], nibbles[1:])
            if new_child is node.children[slot]:
                return ref
            node = self._own(ref)
            node.children[slot] = new_child
        # Collapse a degenerate branch so structure stays canonical (a
        # branch always held two entries, so at least one is left).
        live = [slot for slot, c in enumerate(node.children) if c is not None]
        if node.value is not None:
            return node if live else _Node(_KIND_LEAF, b"", node.value)
        if len(live) > 1:
            return node
        return self._prepend(bytes(live), node.children[live[0]])

    def _prepend(self, path: bytes, ref: Union[Hash, _Node]) -> _Node:
        """The node for ``path`` followed by ``ref``: leaf and extension
        children absorb the path, a branch gets an extension above it."""
        if self._resolve(ref).kind == _KIND_BRANCH:
            return _Node(_KIND_EXTENSION, path, child=ref)
        merged = self._own(ref)
        merged.path = path + merged.path
        return merged

    def _walk(self, ref: _Ref, prefix: bytes) -> Iterator[Tuple[bytes, bytes]]:
        if ref is None:
            return
        node = self._resolve(ref)
        if node.kind == _KIND_LEAF:
            assert node.value is not None
            yield _from_nibbles(prefix + node.path), node.value
            return
        if node.kind == _KIND_EXTENSION:
            yield from self._walk(node.child, prefix + node.path)
            return
        if node.value is not None:
            yield _from_nibbles(prefix), node.value
        for slot, child in enumerate(node.children):
            if child is not None:
                yield from self._walk(child, prefix + bytes((slot,)))


class TrieView:
    """Read-only lens over a committed root of a trie's node store."""

    def __init__(self, trie: MerklePatriciaTrie, root: Optional[Hash]) -> None:
        self._trie = trie
        self._root = root

    @property
    def root_hash(self) -> Hash:
        return self._root if self._root is not None else _EMPTY_ROOT

    def get(self, key: bytes) -> Optional[bytes]:
        return _lookup(self._trie._load, self._root, _to_nibbles(key))

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        yield from self._trie._walk(self._root, b"")


def _decode_node(raw: bytes) -> _Node:
    d = Decoder(raw)
    kind = d.read_uint(1)
    path = d.read_bytes()
    value_bytes = d.read_bytes()
    has_value = d.read_uint(1) == 1
    child_raw = d.read_bytes()
    children_raw = d.read_list()
    return _Node(
        kind,
        path,
        value_bytes if has_value else None,
        Hash(child_raw) if child_raw else None,
        [Hash(c) if c else None for c in children_raw],
    )


def _lookup(
    load: Callable[[Hash], _Node],
    ref: _Ref,
    nibbles: bytes,
    trail: Optional[List[_Node]] = None,
) -> Optional[bytes]:
    """Value at ``nibbles`` below ``ref``; ``load`` resolves hashes (and
    raises ``KeyError`` for a missing node), ``trail`` collects the
    nodes visited."""
    while ref is not None:
        node = ref if ref.__class__ is _Node else load(ref)
        if trail is not None:
            trail.append(node)
        if node.kind == _KIND_LEAF:
            return node.value if node.path == nibbles else None
        if node.kind == _KIND_EXTENSION:
            plen = len(node.path)
            if nibbles[:plen] != node.path:
                return None
            nibbles = nibbles[plen:]
            ref = node.child
            continue
        if not nibbles:
            return node.value
        ref = node.children[nibbles[0]]
        nibbles = nibbles[1:]
    return None


EMPTY_TRIE_ROOT = _EMPTY_ROOT
