"""Bitcoin-style Merkle tree (Section II-A of the paper).

Transactions in a block are hashed pairwise up to a single *Merkle root*
stored in the block header.  The tree supports logarithmic inclusion
proofs — the mechanism that lets pruned and light nodes (Section V) verify
that a transaction belongs to a block without holding the block body.

Bitcoin's rule for an odd level is to duplicate the last element; we
follow it so the root of a single-leaf tree is well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.common.types import Hash
from repro.crypto.hashing import hash_concat


@dataclass(frozen=True)
class MerkleProofStep:
    """One sibling on the leaf-to-root path."""

    sibling: Hash
    sibling_is_left: bool


@dataclass(frozen=True)
class MerkleProof:
    """Inclusion proof for one leaf: the sibling path up to the root."""

    leaf: Hash
    steps: List[MerkleProofStep]

    def compute_root(self) -> Hash:
        """Fold the path back to the root this proof commits to."""
        current = self.leaf
        for step in self.steps:
            if step.sibling_is_left:
                current = hash_concat(step.sibling, current)
            else:
                current = hash_concat(current, step.sibling)
        return current

    def verify(self, root: Hash) -> bool:
        return self.compute_root() == root


class MerkleTree:
    """Merkle tree over a fixed sequence of leaf hashes."""

    def __init__(self, leaves: Sequence[Hash]) -> None:
        if not leaves:
            raise ValueError("Merkle tree requires at least one leaf")
        self._levels: List[List[Hash]] = [list(leaves)]
        while len(self._levels[-1]) > 1:
            self._levels.append(_next_level(self._levels[-1]))

    @property
    def root(self) -> Hash:
        return self._levels[-1][0]

    @property
    def leaf_count(self) -> int:
        return len(self._levels[0])

    @property
    def depth(self) -> int:
        """Number of hashing levels above the leaves."""
        return len(self._levels) - 1

    def proof(self, index: int) -> MerkleProof:
        """Inclusion proof for the leaf at ``index``."""
        if not 0 <= index < self.leaf_count:
            raise IndexError(f"leaf index {index} out of range")
        steps: List[MerkleProofStep] = []
        position = index
        for level in self._levels[:-1]:
            if position % 2 == 0:
                sibling_index = position + 1
                sibling_is_left = False
            else:
                sibling_index = position - 1
                sibling_is_left = True
            if sibling_index >= len(level):
                sibling_index = position  # odd level: last node is duplicated
            steps.append(
                MerkleProofStep(sibling=level[sibling_index], sibling_is_left=sibling_is_left)
            )
            position //= 2
        return MerkleProof(leaf=self._levels[0][index], steps=steps)


def merkle_root(leaves: Sequence[Hash]) -> Hash:
    """Root without keeping the tree (block construction fast path)."""
    if not leaves:
        raise ValueError("Merkle root requires at least one leaf")
    level = list(leaves)
    while len(level) > 1:
        level = _next_level(level)
    return level[0]


def _next_level(level: List[Hash]) -> List[Hash]:
    if len(level) % 2 == 1:
        level = level + [level[-1]]
    return [hash_concat(level[i], level[i + 1]) for i in range(0, len(level), 2)]
