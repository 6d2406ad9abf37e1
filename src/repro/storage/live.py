"""Live, in-simulation pruning (Section V applied to running nodes).

The static pruning helpers (:mod:`repro.storage.pruning`,
:mod:`repro.storage.dag_pruning`) operate on a ledger *after* a run.
Here they are attached to live nodes on a periodic tick, which is what
bounds a replica's memory during a sustained-service soak: block bodies
older than ``keep_depth`` are discarded while the run continues, and the
lattice is trimmed to heads + unsettled sends.

Headers and each UTXO block's undo are never touched (the undo holds the
block's own transaction tuple, not the stored body), so consensus,
reorgs, and the in-loop invariant audits behave exactly as on an
unpruned node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.storage.dag_pruning import prune_lattice
from repro.storage.pruning import DEFAULT_KEEP_DEPTH, prune_chain

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.blockchain.node import BlockchainNode
    from repro.dag.node import NanoNode
    from repro.sim.simulator import PeriodicTask


@dataclass
class LivePruneStats:
    """Accounting for one node's periodic pruning."""

    ticks: int = 0
    blocks_pruned: int = 0
    bytes_freed: int = 0
    #: (sim time, ledger bytes after pruning) per tick — the soak series
    size_series: List[Tuple[float, int]] = field(default_factory=list)


def attach_chain_pruning(
    node: "BlockchainNode",
    interval_s: float,
    keep_depth: int = DEFAULT_KEEP_DEPTH,
    until: Optional[float] = None,
) -> Tuple["PeriodicTask", LivePruneStats]:
    """Prune ``node``'s block bodies below head − ``keep_depth`` every
    ``interval_s`` simulated seconds."""
    if node.network is None:
        raise RuntimeError("attach the node to a network before pruning")
    simulator = node.network.simulator
    stats = LivePruneStats()

    def tick() -> None:
        result = prune_chain(node.chain, keep_depth=keep_depth)
        stats.ticks += 1
        stats.blocks_pruned += result.blocks_pruned
        stats.bytes_freed += result.bytes_freed
        stats.size_series.append((simulator.now, result.size_after))

    task = simulator.schedule_periodic(interval_s, tick, until=until)
    return task, stats


def attach_lattice_pruning(
    node: "NanoNode",
    interval_s: float,
    until: Optional[float] = None,
) -> Tuple["PeriodicTask", LivePruneStats]:
    """Trim ``node``'s lattice to heads + unsettled sends periodically —
    a live *current*-type node (Section V-B)."""
    if node.network is None:
        raise RuntimeError("attach the node to a network before pruning")
    simulator = node.network.simulator
    stats = LivePruneStats()

    def tick() -> None:
        result = prune_lattice(node.lattice)
        stats.ticks += 1
        stats.blocks_pruned += result.blocks_before - result.blocks_after
        stats.bytes_freed += result.bytes_freed
        stats.size_series.append((simulator.now, result.bytes_after))

    task = simulator.schedule_periodic(interval_s, tick, until=until)
    return task, stats
