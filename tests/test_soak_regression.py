"""Bounded-memory soak regression (marked ``soak``).

A sustained open-loop workload against live deployments with periodic
pruning attached: the pruned replica's ledger must plateau while the
unpruned control grows roughly linearly.  These runs simulate minutes of
traffic, so they are opt-in: ``pytest -m soak``.
"""

from dataclasses import replace

import pytest

from repro.blockchain.mempool import MempoolLimits
from repro.blockchain.params import BITCOIN, ETHEREUM
from repro.core.adapters import BlockchainLedger, DagLedger
from repro.net.link import FAST_LINK
from repro.workloads.generators import PaymentEvent
from repro.workloads.open_loop import OpenLoopInjector

pytestmark = pytest.mark.soak

PARAMS = replace(BITCOIN, target_block_interval_s=15.0,
                 max_block_size_bytes=4_000, confirmation_depth=2)

DURATION_S = 480.0
RATE_TPS = 1.5
PRUNE_INTERVAL_S = 60.0


def run_soak(make_ledger):
    """Drive one pruned run and one control run; return their sampled
    ``(time, bytes)`` series plus the pruned run's ledger/report."""
    out = {}
    for label, pruned in (("pruned", True), ("control", False)):
        ledger = make_ledger(pruned)
        ledger.setup(8, 10**9)
        series = []
        ledger.simulator.schedule_periodic(
            PRUNE_INTERVAL_S,
            lambda: series.append((ledger.now(), ledger.serialized_size())),
            until=DURATION_S,
        )
        injector = OpenLoopInjector.from_sim_stream(
            ledger, accounts=8, rate_tps=RATE_TPS, duration_s=DURATION_S
        )
        injector.start()
        ledger.advance(DURATION_S)
        out[label] = (series, ledger, injector.report)
    return out


class TestBlockchainSoak:
    def test_pruned_ledger_plateaus_while_control_grows(self):
        def make(pruned):
            return BlockchainLedger(
                params=PARAMS, node_count=3, link_params=FAST_LINK, seed=5,
                mempool_limits=MempoolLimits(max_count=400),
                prune_interval_s=PRUNE_INTERVAL_S if pruned else None,
                prune_keep_depth=8,
            )

        out = run_soak(make)
        pruned_series, pruned_ledger, report = out["pruned"]
        control_series, _, _ = out["control"]

        # The run actually serviced traffic.
        assert report.submitted > 0
        assert pruned_ledger.stats().entries_confirmed > 0

        # Control grows between the first and last samples...
        assert control_series[-1][1] > control_series[0][1] * 2
        # ...while the pruned replica stays bounded: its second half
        # never exceeds its mid-run size by much more than one prune
        # window's worth of fresh blocks.
        mid = len(pruned_series) // 2
        plateau = max(size for _, size in pruned_series[mid:])
        assert plateau < pruned_series[mid][1] * 1.5
        assert pruned_series[-1][1] < control_series[-1][1]

    def test_prune_stats_recorded(self):
        ledger = BlockchainLedger(
            params=PARAMS, node_count=3, link_params=FAST_LINK, seed=5,
            prune_interval_s=PRUNE_INTERVAL_S, prune_keep_depth=8,
        )
        ledger.setup(8, 10**9)
        injector = OpenLoopInjector.from_sim_stream(
            ledger, accounts=8, rate_tps=RATE_TPS, duration_s=240.0
        )
        injector.start()
        ledger.advance(240.0)
        assert len(ledger.prune_stats) == len(ledger.nodes)
        assert all(stats.ticks > 0 for stats in ledger.prune_stats)
        assert any(stats.blocks_pruned > 0 for stats in ledger.prune_stats)


class TestDagSoak:
    def test_pruned_lattice_plateaus_while_control_grows(self):
        def make(pruned):
            return DagLedger(
                node_count=4, representative_count=2, seed=5,
                prune_interval_s=PRUNE_INTERVAL_S if pruned else None,
            )

        out = run_soak(make)
        pruned_series, pruned_ledger, report = out["pruned"]
        control_series, _, _ = out["control"]

        assert report.submitted > 0
        assert pruned_ledger.stats().entries_confirmed > 0
        assert control_series[-1][1] > control_series[0][1] * 2
        mid = len(pruned_series) // 2
        plateau = max(size for _, size in pruned_series[mid:])
        assert plateau < pruned_series[mid][1] * 1.5
        assert pruned_series[-1][1] < control_series[-1][1]


class TestBoundedMempoolKeepsConfirming:
    """A refused submission must cost exactly that payment.  The adapter
    used to keep the wallet's optimistic state (spent inputs + change,
    or the bumped nonce) of a transaction the node's full mempool had
    turned away, so every later payment of that sender chained off a
    transaction no node held: admitted, never minable, parked in the
    pool until the whole chain stopped confirming."""

    @pytest.mark.parametrize("base,funding", [(BITCOIN, 1_000_000),
                                              (ETHEREUM, 10**9)],
                             ids=["utxo", "account"])
    def test_sender_recovers_after_a_rejected_burst(self, base, funding):
        ledger = BlockchainLedger(
            params=replace(base, target_block_interval_s=15.0,
                           confirmation_depth=2),
            node_count=3, link_params=FAST_LINK, seed=1,
            mempool_limits=MempoolLimits(max_count=3),
        )
        ledger.setup(4, funding)

        def pay(sender, recipient):
            return ledger.submit(PaymentEvent(
                time_s=0.0, sender_index=sender, recipient_index=recipient,
                amount=10))

        burst = [pay(0, 1) for _ in range(8)]
        assert sum(entry is not None for entry in burst) == 3  # the cap
        ledger.advance(200.0)
        later = []
        for sender, count in ((0, 5), (2, 4)):
            for _ in range(count):
                later.append(pay(sender, 3))
                ledger.advance(60.0)
        ledger.advance(200.0)
        assert all(entry is not None for entry in later)
        stats = ledger.stats()
        assert (stats.entries_created, stats.entries_confirmed) == (12, 12)
        assert [len(node.mempool) for node in ledger.nodes] == [0, 0, 0]

    def test_saturated_chain_keeps_confirming_and_drains(self):
        """Twice the chain's capacity into a 400-entry pool for 1 200 s:
        most offers are refused, everything admitted must still confirm
        (the wedged run stopped at 269 with all three pools full)."""
        ledger = BlockchainLedger(
            params=PARAMS, node_count=3, link_params=FAST_LINK, seed=0,
            mempool_limits=MempoolLimits(max_count=400),
        )
        ledger.setup(10, 10**9)
        injector = OpenLoopInjector.from_sim_stream(
            ledger, accounts=10, rate_tps=2.0, duration_s=1200.0)
        injector.start()
        ledger.advance(1200.0)
        report = injector.report
        assert report.rejected > report.offered // 4  # it did saturate
        ledger.advance(3000.0)
        confirmed = ledger.stats().entries_confirmed
        assert confirmed > 1000
        # Not yet ==: a transaction *evicted* after admission still
        # strands its children (ROADMAP item 8 (a)).
        assert confirmed >= report.submitted - 1
        assert [len(node.mempool) for node in ledger.nodes] == [0, 0, 0]
