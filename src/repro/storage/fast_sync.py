"""Ethereum fast sync (Section V-A).

"Instead of processing the entire blockchain one link at a time and
replaying all transactions that ever happened in history, fast syncing
downloads the transaction receipts along the blocks, and pulls an entire
recent state" at the *pivot point* (head − 1024 blocks), then resumes
normal operation.  "The result of the mechanism is a database pruned of
the state deltas."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.blockchain.chain import ChainStore
from repro.blockchain.receipts import Receipt
from repro.blockchain.state import AccountState

#: Geth's pivot offset: state is fetched at head − 1024.
DEFAULT_PIVOT_OFFSET = 1024


@dataclass
class FastSyncResult:
    """Cost comparison between full sync and fast sync for one replica."""

    pivot_height: int
    head_height: int
    # Full sync: every block body is downloaded and re-executed.
    full_sync_bytes: int
    full_sync_txs_replayed: int
    # Fast sync: headers + receipts + one state snapshot + recent bodies.
    fast_sync_bytes: int
    fast_sync_txs_replayed: int
    state_snapshot_bytes: int

    @property
    def replay_saved(self) -> int:
        return self.full_sync_txs_replayed - self.fast_sync_txs_replayed


def fast_sync(
    chain: ChainStore,
    state: AccountState,
    receipts_by_block: List[List[Receipt]],
    pivot_offset: int = DEFAULT_PIVOT_OFFSET,
) -> FastSyncResult:
    """Compute what a fresh node downloads/executes under each strategy.

    ``receipts_by_block[h]`` are the receipts of the main-chain block at
    height ``h``.  The state snapshot cost is the *live* trie size at the
    current root (fast sync never fetches historical deltas — the
    versions the trie stored for the roots read before, one per block).
    """
    head = chain.height
    pivot = max(head - pivot_offset, 0)
    blocks = chain.main_chain()

    full_bytes = sum(b.size_bytes for b in blocks)
    full_replayed = sum(len(b.transactions) for b in blocks)

    header_bytes = sum(b.header.size_bytes for b in blocks)
    # Receipts ride along with *every* header, not just the pre-pivot
    # range — geth downloads them for the whole chain before pivoting.
    receipt_bytes = sum(
        r.size_bytes for height in range(len(receipts_by_block))
        for r in receipts_by_block[height]
    )
    snapshot_bytes = state.live_size_bytes()
    recent_body_bytes = sum(b.body_size_bytes for b in blocks[pivot + 1 :])
    recent_replayed = sum(len(b.transactions) for b in blocks[pivot + 1 :])

    return FastSyncResult(
        pivot_height=pivot,
        head_height=head,
        full_sync_bytes=full_bytes,
        full_sync_txs_replayed=full_replayed,
        fast_sync_bytes=header_bytes + receipt_bytes + snapshot_bytes + recent_body_bytes,
        fast_sync_txs_replayed=recent_replayed,
        state_snapshot_bytes=snapshot_bytes,
    )


def prune_state_deltas(state: AccountState) -> int:
    """Drop all historical state versions, keeping only the current root —
    the end state of a fast-synced database.  Returns bytes freed."""
    return state.prune_history()
