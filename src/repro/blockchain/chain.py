"""Chain store: block storage, fork choice, and reorganizations.

This is where the paper's Section IV-A behaviour lives.  Blocks form a
tree; the *main chain* is the branch of greatest cumulative work ("the
longer chain is adopted").  When a new block makes a side branch heavier,
:meth:`ChainStore.add_block` returns a :class:`ReorgResult` listing the
orphaned blocks (whose transactions the caller returns to the mempool)
and the newly adopted blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.common.errors import CementedBlockError, UnknownParentError, ValidationError
from repro.common.types import Hash
from repro.blockchain.block import Block


@dataclass
class ReorgResult:
    """Outcome of adding one block.

    ``rolled_back`` and ``applied`` are ordered root-to-tip; both empty
    lists with ``extended_main=False`` means the block landed on a side
    branch without changing the main chain.
    """

    block_accepted: bool
    extended_main: bool = False
    rolled_back: List[Block] = field(default_factory=list)
    applied: List[Block] = field(default_factory=list)

    @property
    def is_reorg(self) -> bool:
        return bool(self.rolled_back)


@dataclass
class _BlockEntry:
    block: Block
    cumulative_work: float
    arrival_order: int


class ChainStore:
    """A tree of blocks with heaviest-chain fork choice.

    Ties in cumulative work are broken by arrival order (first seen wins),
    matching real client behaviour: during a soft fork "nodes continue to
    build the chain on top of their received blocks".
    """

    def __init__(self, genesis: Block) -> None:
        if not genesis.is_genesis():
            raise ValidationError("chain store must be seeded with a genesis block")
        self._entries: Dict[Hash, _BlockEntry] = {}
        self._children: Dict[Hash, List[Hash]] = {}
        self._main_chain: List[Hash] = []  # index = height
        self._arrivals = 0
        self._cemented_height = -1
        self.reorg_count = 0
        self.deepest_reorg = 0
        self._insert(genesis, cumulative_work=genesis.header.work)
        self._main_chain = [genesis.block_id]

    # ----------------------------------------------------------------- reads

    @property
    def genesis(self) -> Block:
        return self._entries[self._main_chain[0]].block

    @property
    def head(self) -> Block:
        return self._entries[self._main_chain[-1]].block

    @property
    def height(self) -> int:
        return len(self._main_chain) - 1

    def __contains__(self, block_id: Hash) -> bool:
        return block_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def block(self, block_id: Hash) -> Block:
        return self._entries[block_id].block

    def cumulative_work(self, block_id: Hash) -> float:
        return self._entries[block_id].cumulative_work

    def block_at_height(self, height: int) -> Block:
        return self._entries[self._main_chain[height]].block

    def main_chain(self) -> List[Block]:
        return [self._entries[h].block for h in self._main_chain]

    def is_on_main_chain(self, block_id: Hash) -> bool:
        entry = self._entries.get(block_id)
        if entry is None:
            return False
        height = entry.block.height
        return height < len(self._main_chain) and self._main_chain[height] == block_id

    def confirmations(self, block_id: Hash) -> int:
        """Blocks on the main chain at or above this one (0 = not on main
        chain) — the quantity Section IV-A's depth rules count."""
        entry = self._entries.get(block_id)
        if entry is None or not self.is_on_main_chain(block_id):
            return 0
        return self.height - entry.block.height + 1

    def tips(self) -> List[Block]:
        """All leaf blocks — more than one means a live fork exists."""
        with_children = set(self._children)
        return [
            e.block
            for e in self._entries.values()
            if e.block.block_id not in with_children
        ]

    def headers(self) -> Iterable[Block]:
        return (e.block for e in self._entries.values())

    # --------------------------------------------------------------- writes

    def add_block(self, block: Block) -> ReorgResult:
        """Insert ``block``; returns what happened to the main chain.

        A block whose parent is not stored raises
        :class:`UnknownParentError` and stores nothing: the node's intake
        layer holds such a block until its parent connects.
        """
        if block.block_id in self._entries:
            return ReorgResult(block_accepted=False)
        parent_entry = self._entries.get(block.parent_id)
        if parent_entry is None:
            raise UnknownParentError(
                f"block {block.block_id.short()} has unknown parent "
                f"{block.parent_id.short()}"
            )
        if block.height != parent_entry.block.height + 1:
            raise ValidationError(
                f"block {block.block_id.short()} height {block.height} does not "
                f"follow parent height {parent_entry.block.height}"
            )
        cumulative = parent_entry.cumulative_work + block.header.work
        self._insert(block, cumulative)

        head_entry = self._entries[self._main_chain[-1]]
        if cumulative <= head_entry.cumulative_work:
            return ReorgResult(block_accepted=True, extended_main=False)

        if block.parent_id == self._main_chain[-1]:
            # Fast path: plain extension of the main chain.
            self._main_chain.append(block.block_id)
            return ReorgResult(block_accepted=True, extended_main=True, applied=[block])

        return self._reorganize(block)

    def cement(self, height: int) -> None:
        """Mark the main chain final up to ``height``: any reorg that
        would roll back at or below it raises (Casper FFG checkpoints /
        Nano block-cementing, Section IV)."""
        if height > self.height:
            raise ValueError(f"cannot cement unmined height {height}")
        self._cemented_height = max(self._cemented_height, height)

    @property
    def cemented_height(self) -> int:
        return self._cemented_height

    def invalidate(self, block_id: Hash) -> ReorgResult:
        """Forget a connected block, and its descendants, that failed a
        check which can only run once fork choice has adopted it (an
        account block's state root needs its parent's state).

        The main chain falls back to the block's parent and from there
        to the heaviest branch left; the result describes that second
        move and is empty when the parent stays the head.
        """
        block = self._entries[block_id].block
        on_main = self.is_on_main_chain(block_id)
        siblings = self._children[block.parent_id]
        siblings.remove(block_id)
        if not siblings:
            del self._children[block.parent_id]
        doomed = [block_id]
        for doomed_id in doomed:  # grows while iterating: the whole subtree
            doomed.extend(self._children.pop(doomed_id, ()))
            del self._entries[doomed_id]
        if not on_main:
            return ReorgResult(block_accepted=False)
        del self._main_chain[block.height :]
        best = min(
            self._entries.values(),
            key=lambda e: (-e.cumulative_work, e.arrival_order),
        ).block
        if best.block_id == self._main_chain[-1]:
            return ReorgResult(block_accepted=False)
        return self._reorganize(best)

    # ------------------------------------------------------------- internals

    def _insert(self, block: Block, cumulative_work: float) -> None:
        self._arrivals += 1
        self._entries[block.block_id] = _BlockEntry(
            block=block, cumulative_work=cumulative_work, arrival_order=self._arrivals
        )
        if not block.parent_id.is_zero():
            self._children.setdefault(block.parent_id, []).append(block.block_id)

    def _reorganize(self, new_head: Block) -> ReorgResult:
        """Switch the main chain to the branch ending at ``new_head``."""
        new_branch: List[Block] = []
        cursor: Optional[Block] = new_head
        while cursor is not None and not self.is_on_main_chain(cursor.block_id):
            new_branch.append(cursor)
            cursor = (
                self._entries[cursor.parent_id].block
                if cursor.parent_id in self._entries
                else None
            )
        if cursor is None:
            raise UnknownParentError("new branch does not connect to the main chain")
        new_branch.reverse()
        fork_height = cursor.height

        if fork_height < self._cemented_height:
            raise CementedBlockError(
                f"reorg would roll back cemented height {self._cemented_height}"
            )

        rolled_back = [
            self._entries[h].block for h in self._main_chain[fork_height + 1 :]
        ]
        del self._main_chain[fork_height + 1 :]
        self._main_chain.extend(b.block_id for b in new_branch)

        self.reorg_count += 1
        self.deepest_reorg = max(self.deepest_reorg, len(rolled_back))
        return ReorgResult(
            block_accepted=True,
            extended_main=True,
            rolled_back=rolled_back,
            applied=new_branch,
        )

    # --------------------------------------------------------------- pruning

    def drop_body(self, block_id: Hash) -> int:
        """Replace a block's body with an empty one, keeping the header.

        Returns the bytes freed.  Used by :mod:`repro.storage.pruning`;
        after this the node "is no longer able to relay the full history".
        """
        entry = self._entries[block_id]
        freed = entry.block.body_size_bytes
        entry.block = Block(header=entry.block.header, transactions=())
        return freed

    def total_size_bytes(self) -> int:
        """Serialized size of all stored blocks (main chain + side branches)."""
        return sum(e.block.size_bytes for e in self._entries.values())
