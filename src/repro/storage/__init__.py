"""Ledger size accounting and pruning (Section V).

"As every ledger contains all information since its genesis, its size is
constantly increasing."  This package measures real serialized sizes of
our ledgers and implements the pruning remedies: Bitcoin's block-file
pruning and Nano's balance-based pruning with historical/current/light
node types.  Ethereum's fast sync is the account-chain branch of
``BlockchainNode.state_sync_from``.
"""

from repro.storage.sizing import LedgerSizeReport, blockchain_size_report, dag_size_report
from repro.storage.pruning import PruneResult, prune_chain
from repro.storage.dag_pruning import DagNodeType, dag_footprint, prune_lattice
from repro.storage.growth import GrowthModel, LEDGER_SNAPSHOT_2018
from repro.storage.live import (
    LivePruneStats,
    attach_chain_pruning,
    attach_lattice_pruning,
)

__all__ = [
    "DagNodeType",
    "GrowthModel",
    "LEDGER_SNAPSHOT_2018",
    "LedgerSizeReport",
    "LivePruneStats",
    "PruneResult",
    "attach_chain_pruning",
    "attach_lattice_pruning",
    "blockchain_size_report",
    "dag_footprint",
    "dag_size_report",
    "prune_chain",
    "prune_lattice",
]
