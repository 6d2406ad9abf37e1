"""Tests for repro.workloads.open_loop (open-loop traffic injection)."""

from dataclasses import replace

import pytest

from repro.blockchain.params import BITCOIN
from repro.core.adapters import BlockchainLedger
from repro.net.link import FAST_LINK
from repro.workloads.open_loop import OpenLoopInjector, OpenLoopReport

PARAMS = replace(BITCOIN, target_block_interval_s=10.0,
                 max_block_size_bytes=4_000, confirmation_depth=2)


def make_ledger(seed=7):
    return BlockchainLedger(params=PARAMS, node_count=3,
                            link_params=FAST_LINK, seed=seed)


class TestOpenLoopInjector:
    def test_offers_poisson_traffic(self):
        ledger = make_ledger()
        ledger.setup(6, 10**9)
        injector = OpenLoopInjector.from_sim_stream(
            ledger, accounts=6, rate_tps=1.0, duration_s=60.0
        )
        injector.start()
        ledger.advance(90.0)
        report = injector.report
        assert report.offered > 0
        assert report.offered == report.submitted + report.rejected
        assert ledger.stats().entries_created == report.submitted

    def test_confirmations_accumulate_under_load(self):
        ledger = make_ledger()
        ledger.setup(6, 10**9)
        injector = OpenLoopInjector.from_sim_stream(
            ledger, accounts=6, rate_tps=1.0, duration_s=90.0
        )
        injector.start()
        ledger.advance(150.0)
        latencies = ledger.stats().confirmation_latencies_s
        assert latencies
        assert all(lat >= 0 for lat in latencies)

    def test_injection_is_deterministic(self):
        def outcome():
            ledger = make_ledger(seed=11)
            ledger.setup(6, 10**9)
            injector = OpenLoopInjector.from_sim_stream(
                ledger, accounts=6, rate_tps=2.0, duration_s=40.0
            )
            injector.start()
            ledger.advance(60.0)
            return (injector.report.offered, injector.report.submitted,
                    injector.report.rejected)

        assert outcome() == outcome()

    def test_requires_live_deployment(self):
        ledger = make_ledger()  # setup() never called: no simulator yet
        with pytest.raises(ValueError):
            OpenLoopInjector.from_sim_stream(
                ledger, accounts=4, rate_tps=1.0, duration_s=10.0
            )

    def test_rejects_nonpositive_horizon(self):
        ledger = make_ledger()
        ledger.setup(4, 10**9)
        with pytest.raises(ValueError):
            OpenLoopInjector.from_sim_stream(
                ledger, accounts=4, rate_tps=1.0, duration_s=0.0
            )


class TestOpenLoopReport:
    def test_backpressure_fraction(self):
        report = OpenLoopReport(offered=10, submitted=7, rejected=3)
        assert report.backpressure_fraction == pytest.approx(0.3)

    def test_backpressure_fraction_empty(self):
        assert OpenLoopReport().backpressure_fraction == 0.0
