"""Bitcoin-style block-file pruning (Section V-A).

"Bitcoin clients offer a pruning mode, allowing users to delete raw block
data after the entire ledger has been downloaded and validated, keeping
only a small subset of the data ... to be able to relay recent blocks to
peers and handle soft forks.  The downside is that other nodes are no
longer able to download the entire history of a pruned node."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.blockchain.chain import ChainStore

#: Bitcoin Core keeps at least 288 blocks (~2 days) when pruning.
DEFAULT_KEEP_DEPTH = 288


@dataclass
class PruneResult:
    """Outcome of one pruning pass."""

    blocks_pruned: int
    bytes_freed: int
    keep_depth: int
    size_before: int
    size_after: int

    @property
    def fraction_freed(self) -> float:
        return self.bytes_freed / self.size_before if self.size_before else 0.0


def prune_chain(chain: ChainStore, keep_depth: int = DEFAULT_KEEP_DEPTH) -> PruneResult:
    """Discard transaction bodies of main-chain blocks deeper than
    ``keep_depth`` below the head; headers always remain (they carry the
    PoW chain and Merkle commitments needed to validate new blocks)."""
    if keep_depth < 1:
        raise ValueError("must keep at least the most recent block")
    size_before = chain.total_size_bytes()
    cutoff_height = chain.height - keep_depth
    freed = 0
    pruned = 0
    for height in range(0, max(cutoff_height + 1, 0)):
        block = chain.block_at_height(height)
        if not block.transactions:
            continue  # already pruned
        freed += chain.drop_body(block.block_id)
        pruned += 1
    return PruneResult(
        blocks_pruned=pruned,
        bytes_freed=freed,
        keep_depth=keep_depth,
        size_before=size_before,
        size_after=chain.total_size_bytes(),
    )
