#!/usr/bin/env python3
"""Quickstart: run the same payment workload through both DLT paradigms.

Stands up a small PoW blockchain network (Bitcoin-like parameters, scaled
down so the demo finishes in seconds of wall time) and a Nano block-lattice
testbed, drives both with an identical Poisson payment workload, and prints
the paper's five-dimension comparison.

Run:  python examples/quickstart.py
"""

from dataclasses import replace

from repro.blockchain.params import BITCOIN
from repro.core.adapters import BlockchainLedger, DagLedger
from repro.core.comparison import compare_ledgers
from repro.workloads.generators import PaymentWorkload


def main() -> None:
    # Scale Bitcoin's 600 s interval down to 30 s so the demo's simulated
    # hour stays cheap; the relative shapes are unchanged.
    params = replace(BITCOIN, target_block_interval_s=30.0, confirmation_depth=4)

    workload = PaymentWorkload(accounts=8, rate_tps=0.1, zipf_alpha=0.8, seed=42)
    events = workload.generate(duration_s=600.0)
    print(f"workload: {len(events)} payments over 600 simulated seconds\n")

    report = compare_ledgers(
        BlockchainLedger(params=params, node_count=4, seed=7),
        DagLedger(node_count=6, representative_count=3, seed=7),
        events,
        accounts=8,
        initial_balance=10_000_000,
        settle_s=240.0,
    )
    print(report.render())

    bc, dag = report.blockchain, report.dag
    if bc.mean_confirmation_s and dag.mean_confirmation_s:
        speedup = bc.mean_confirmation_s / dag.mean_confirmation_s
        print(
            f"\nThe DAG confirmed payments {speedup:,.0f}x faster: one vote "
            "round instead of waiting for blocks to pile on top (paper §IV)."
        )


if __name__ == "__main__":
    main()
