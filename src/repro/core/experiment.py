"""Registry of every reproduced figure and quantitative claim.

Mirrors the per-experiment index in DESIGN.md so code and documentation
cannot drift apart: tests assert that every registered experiment has an
existing bench file and that every listed module imports.

The registry is also the *resolution layer* for the sweep runner
(:mod:`repro.runner`): each entry carries ``default_params`` (the
single-point parameter grid a bare run uses) and knows how to load its
bench module's uniform ``run(params, seed)`` callable via
:meth:`Experiment.load_runner` — no path string munging anywhere else.
"""

from __future__ import annotations

import importlib
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Tuple


def bench_dir() -> Path:
    """Directory holding the ``bench_*.py`` modules.

    Defaults to the repository's ``benchmarks/`` directory next to
    ``src/``; override with the ``REPRO_BENCH_DIR`` environment variable
    (e.g. for installed-package deployments or test fixtures).
    """
    override = os.environ.get("REPRO_BENCH_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / "benchmarks"


@dataclass(frozen=True)
class Experiment:
    """One reproducible artifact of the paper."""

    experiment_id: str
    paper_ref: str
    claim: str
    modules: Tuple[str, ...]
    bench: str
    default_params: Mapping[str, Any] = field(default_factory=dict, hash=False)

    @property
    def bench_module(self) -> str:
        """Importable module name of the bench file."""
        name = self.bench
        return name[:-3] if name.endswith(".py") else name

    def load_module(self):
        """Import the bench module (adding the bench dir to ``sys.path``)."""
        directory = str(bench_dir())
        if directory not in sys.path:
            sys.path.insert(0, directory)
        return importlib.import_module(self.bench_module)

    def load_runner(self) -> Callable[[Dict[str, Any], int], Dict[str, Any]]:
        """The bench's uniform ``run(params, seed) -> result`` callable."""
        module = self.load_module()
        run = getattr(module, "run", None)
        if not callable(run):
            raise AttributeError(
                f"{self.bench_module} does not expose run(params, seed)"
            )
        return run


EXPERIMENTS: Dict[str, Experiment] = {
    e.experiment_id: e
    for e in [
        Experiment(
            "F1", "Fig. 1, §II-A",
            "Blockchain: hash-linked blocks of transactions with Merkle roots",
            ("repro.blockchain.block", "repro.blockchain.chain", "repro.crypto.merkle"),
            "bench_f1_blockchain_structure.py",
            default_params={"blocks": 50, "txs_per_block": 10},
        ),
        Experiment(
            "F2", "Fig. 2, §II-B",
            "Block-lattice: per-account chains, one transaction per node",
            ("repro.dag.lattice", "repro.dag.blocks"),
            "bench_f2_block_lattice.py",
            default_params={"accounts": 10, "transfers_per_account": 5},
        ),
        Experiment(
            "F3", "Fig. 3, §II-B",
            "Send/receive pairs; funds pending until receive; offline receivers",
            ("repro.dag.lattice", "repro.dag.node"),
            "bench_f3_send_receive.py",
            default_params={"node_count": 6, "representative_count": 3,
                            "amount": 777},
        ),
        Experiment(
            "F4", "Fig. 4, §IV-A",
            "Soft forks form under delay and resolve to the longest chain",
            ("repro.blockchain.chain", "repro.net.network", "repro.sim"),
            "bench_f4_soft_forks.py",
            default_params={"interval_s": 60.0, "latency_s": 6.0,
                            "duration_s": 1500.0},
        ),
        Experiment(
            "E1", "§III-A1",
            "PoW lottery: win rate tracks hash power; difficulty keeps interval fixed",
            ("repro.crypto.pow", "repro.blockchain.difficulty", "repro.blockchain.miner"),
            "bench_e1_pow_lottery.py",
            default_params={"rounds": 20_000, "growth_factor": 10.0,
                            "pow_difficulty": 512},
        ),
        Experiment(
            "E2", "§III-A2",
            "PoS: selection tracks stake; misbehaviour burns stake; energy gap",
            ("repro.blockchain.pos",),
            "bench_e2_pos.py",
            default_params={"rounds": 20_000},
        ),
        Experiment(
            "E3", "§III-B",
            "ORV: weighted votes resolve conflicts; anti-spam PoW throttles spam",
            ("repro.dag.voting", "repro.dag.representatives", "repro.workloads.attacks"),
            "bench_e3_orv.py",
            default_params={"spam_txs": 500_000, "node_count": 5},
        ),
        Experiment(
            "E4", "§IV-A",
            "Reversal probability falls with depth; 6 (Bitcoin) / 5-11 (Ethereum)",
            ("repro.confirmation.nakamoto",),
            "bench_e4_confirmation_depth.py",
            default_params={"attacker_share": 0.1, "depth": 6, "risk": 0.001},
        ),
        Experiment(
            "E5", "§IV-B",
            "DAG confirmation = one vote round, not k block intervals",
            ("repro.dag.voting", "repro.confirmation.dag_confirmation"),
            "bench_e5_dag_confirmation.py",
            default_params={"transfers": 8, "node_count": 8,
                            "representative_count": 4},
        ),
        Experiment(
            "E6", "§V",
            "Ledger sizes grow linearly; Bitcoin >> Ethereum >> Nano ordering",
            ("repro.storage.sizing", "repro.storage.growth"),
            "bench_e6_ledger_growth.py",
            default_params={"txs": 300},
        ),
        Experiment(
            "E7", "§V-A",
            "Bitcoin pruning and Ethereum fast sync shrink replicas",
            ("repro.storage.pruning", "repro.storage.fast_sync"),
            "bench_e7_blockchain_pruning.py",
            default_params={"blocks": 300, "txs_per_block": 8,
                            "keep_depth": 50, "pivot_window": 64},
        ),
        Experiment(
            "E8", "§V-B",
            "Nano pruning to heads; historical/current/light footprints",
            ("repro.storage.dag_pruning",),
            "bench_e8_dag_pruning.py",
            default_params={"accounts": 20, "transfers": 200},
        ),
        Experiment(
            "E9", "§VI-A",
            "Bitcoin 3-7 TPS, Ethereum 7-15 TPS, PoS ~4s blocks, Visa 56k",
            ("repro.scaling.throughput", "repro.blockchain.params"),
            "bench_e9_blockchain_tps.py",
            default_params={"offered_tps": 20.0, "duration_s": 600.0},
        ),
        Experiment(
            "E10", "§VI-A",
            "Bigger blocks: linear TPS gain, linear node-load growth (Segwit2x)",
            ("repro.scaling.blocksize", "repro.confirmation.orphan"),
            "bench_e10_blocksize.py",
            default_params={"block_size_mb": 2.0},
        ),
        Experiment(
            "E11", "§VI-A",
            "Channels: 2 on-chain txs buy unbounded off-chain volume",
            ("repro.scaling.channels",),
            "bench_e11_channels.py",
            default_params={"clients": 8, "payments_per_client": 500},
        ),
        Experiment(
            "E12", "§VI-A",
            "Plasma: root chain stores commitments only; fraud proofs slash",
            ("repro.scaling.plasma",),
            "bench_e12_plasma.py",
            default_params={"users": 20, "blocks": 25, "txs_per_block": 40},
        ),
        Experiment(
            "E13", "§VI-A",
            "Sharding: ~K-fold throughput, eroded by cross-shard traffic",
            ("repro.scaling.sharding",),
            "bench_e13_sharding.py",
            default_params={"shard_count": 8, "transfers": 2000,
                            "accounts": 200},
        ),
        Experiment(
            "E14", "§VI-B",
            "Nano TPS uncapped by protocol; bounded by node hardware; peak >> avg",
            ("repro.dag.node", "repro.scaling.throughput"),
            "bench_e14_dag_tps.py",
            default_params={"offered_tps": 60.0, "processing_tps": 0.0,
                            "duration_s": 20.0},
        ),
        Experiment(
            "E15", "§IV-A",
            "Double-spend success vs attacker share and depth (Monte Carlo)",
            ("repro.workloads.attacks", "repro.confirmation.nakamoto"),
            "bench_e15_double_spend.py",
            default_params={"attacker_share": 0.25, "depth": 6,
                            "trials": 2000},
        ),
        Experiment(
            "A1", "§IV-A (ablation)",
            "Overlay topology drives flood latency and the soft-fork rate",
            ("repro.net.topology", "repro.sim.simulator"),
            "bench_a1_topology_ablation.py",
            default_params={"topology": "small-world", "nodes": 24,
                            "measure_forks": 0, "fork_duration_s": 1500.0},
        ),
        Experiment(
            "A2", "§III-B (ablation)",
            "ORV quorum fraction trades confirmation speed against liveness",
            ("repro.dag.bootstrap", "repro.dag.voting"),
            "bench_a2_quorum_ablation.py",
            default_params={"quorum": 0.5, "offline_reps": 0},
        ),
        Experiment(
            "A3", "§IV-A (ablation)",
            "Block interval trades orphan rate against confirmation wait",
            ("repro.confirmation.orphan", "repro.confirmation.nakamoto"),
            "bench_a3_interval_ablation.py",
            default_params={"interval_s": 60.0, "propagation_delay_s": 5.0,
                            "attacker_share": 0.15, "risk": 0.001},
        ),
        Experiment(
            "A4", "footnote 1 (extension)",
            "Tangle confirmation confidence grows with cumulative weight",
            ("repro.dag.tangle",),
            "bench_a4_tangle_extension.py",
            default_params={"tx_count": 60, "alpha": 0.05, "samples": 40},
        ),
        Experiment(
            "A5", "§VI-A (ablation)",
            "Live difficulty retargeting absorbs a hashrate shock in-run",
            ("repro.blockchain.retarget",),
            "bench_a5_live_retarget.py",
            default_params={"shock_at_s": 600.0, "horizon_s": 2400.0,
                            "shock_factor": 8.0},
        ),
        Experiment(
            "A6", "footnote 1 (extension)",
            "Witnessed DAG (Byteball): deterministic total order, no election",
            ("repro.dag.byteball",),
            "bench_a6_byteball_extension.py",
            default_params={"units": 40, "witnesses": 5},
        ),
        Experiment(
            "A7", "§IV, §VI-B",
            "Gossip recovers to full delivery after partitions/churn; "
            "trace accounts for every drop",
            ("repro.faults", "repro.trace", "repro.net.network"),
            "bench_a7_fault_tolerance.py",
            default_params={"nodes": 12, "duration_s": 120.0,
                            "partition_at_s": 30.0, "heal_after_s": 30.0,
                            "rate_tps": 0.5, "churn_nodes": 2,
                            "capture_trace": 0},
        ),
        Experiment(
            "A8", "§IV, §V, §VI (extension)",
            "Sustained service: p50/p99 confirmation latency vs offered "
            "load with a saturation knee per paradigm; periodic pruning "
            "bounds ledger size where the unpruned control grows",
            ("repro.workloads.open_loop", "repro.metrics.slo",
             "repro.storage.live"),
            "bench_a8_sustained_load.py",
            default_params={"accounts": 12, "duration_s": 240.0,
                            "settle_s": 120.0,
                            "blockchain_loads": (0.25, 0.5, 1.0, 2.0),
                            "dag_loads": (2.0, 8.0, 24.0),
                            "dag_processing_tps": 12.0,
                            "soak_duration_s": 600.0,
                            "soak_rate_tps": 1.0,
                            "soak_prune_interval_s": 60.0,
                            "soak_keep_depth": 8,
                            "topology_scales": (100, 1_000, 10_000,
                                                100_000),
                            "scale_duration_s": 90.0,
                            "scale_settle_s": 90.0,
                            "scale_blockchain_tps": 1.0,
                            "scale_dag_tps": 8.0},
        ),
        Experiment(
            "A9", "§III, §IV (extension)",
            "Quorum-certificate BFT: deterministic finality, view change "
            "restores liveness, equivocation contained below n/3",
            ("repro.consensus.hotstuff", "repro.core.deploy"),
            "bench_a9_bft.py",
            default_params={"node_count": 4, "payments": 10,
                            "crash_downtime_s": 12.0},
        ),
        Experiment(
            "A10", "§VI (scale tier)",
            "Scale tier: mean-field clusters, sharded floods and full "
            "protocol traffic on the sharded message plane extend the "
            "TPS/propagation curves to 10^4-10^6 nodes",
            ("repro.net.aggregate", "repro.net.sharded_plane",
             "repro.sim.sharded", "repro.core.deploy"),
            "bench_a10_scale.py",
            default_params={"scales": (100, 1_000, 10_000),
                            "duration_s": 120.0,
                            "blockchain_tps": 2.0, "dag_tps": 8.0,
                            "sharded_nodes": 10_000, "sharded_shards": 8,
                            "total_nodes": 0,
                            "traffic_nodes": 2_000,
                            "traffic_duration_s": 30.0},
        ),
    ]
}
