"""Integration tests for the uniform Ledger adapters and comparison."""

from dataclasses import replace

import pytest

from repro.blockchain.params import BITCOIN, ETHEREUM
from repro.core.adapters import BlockchainLedger, DagLedger
from repro.core.comparison import compare_ledgers
from repro.core.experiment import EXPERIMENTS
from repro.workloads.generators import PaymentWorkload

FAST_BITCOIN = replace(BITCOIN, target_block_interval_s=15.0, confirmation_depth=2)
FAST_ETHEREUM = replace(ETHEREUM, target_block_interval_s=5.0, confirmation_depth=2)


@pytest.fixture(scope="module")
def events():
    return PaymentWorkload(accounts=4, rate_tps=0.05, seed=2).generate(200.0)


class TestBlockchainLedgerAdapter:
    def test_utxo_mode_end_to_end(self, events):
        ledger = BlockchainLedger(params=FAST_BITCOIN, node_count=3, seed=1)
        ledger.setup(accounts=4, initial_balance=1_000_000)
        entries = ledger.run_workload(events, settle_s=120.0)
        assert entries
        stats = ledger.stats()
        assert stats.entries_confirmed == len(entries)
        assert stats.confirmation_latencies_s
        assert ledger.serialized_size() > 0

    def test_account_mode_end_to_end(self, events):
        ledger = BlockchainLedger(params=FAST_ETHEREUM, node_count=3, seed=1)
        ledger.setup(accounts=4, initial_balance=10**9)
        entries = ledger.run_workload(events, settle_s=60.0)
        stats = ledger.stats()
        assert stats.entries_confirmed == len(entries)

    def test_balances_reflect_workload(self, events):
        ledger = BlockchainLedger(params=FAST_BITCOIN, node_count=3, seed=1)
        ledger.setup(accounts=4, initial_balance=1_000_000)
        ledger.run_workload(events, settle_s=120.0)
        total = sum(ledger.balance(i) for i in range(4))
        fees_paid = len([e for e in events]) * ledger.fee
        assert total >= 4 * 1_000_000 - fees_paid - 1  # fees left the accounts

    def test_underfunded_submission_dropped(self):
        from repro.workloads.generators import PaymentEvent

        ledger = BlockchainLedger(params=FAST_BITCOIN, node_count=3, seed=1)
        ledger.setup(accounts=2, initial_balance=100)
        event = PaymentEvent(time_s=0.0, sender_index=0, recipient_index=1, amount=10**9)
        assert ledger.submit(event) is None


class TestDagLedgerAdapter:
    def test_end_to_end(self, events):
        ledger = DagLedger(node_count=4, representative_count=2, seed=1)
        ledger.setup(accounts=4, initial_balance=1_000_000)
        entries = ledger.run_workload(events, settle_s=30.0)
        stats = ledger.stats()
        assert stats.entries_confirmed == len(entries)
        assert stats.confirmation_latencies_s
        assert ledger.serialized_size() > 0

    def test_dag_confirms_much_faster_than_blockchain(self, events):
        """The Section IV punchline, measured end to end."""
        blockchain = BlockchainLedger(params=FAST_BITCOIN, node_count=3, seed=1)
        blockchain.setup(accounts=4, initial_balance=1_000_000)
        blockchain.run_workload(events, settle_s=120.0)
        dag = DagLedger(node_count=4, representative_count=2, seed=1)
        dag.setup(accounts=4, initial_balance=1_000_000)
        dag.run_workload(events, settle_s=30.0)
        bc_latency = sum(blockchain.stats().confirmation_latencies_s) / max(
            len(blockchain.stats().confirmation_latencies_s), 1
        )
        dag_latency = sum(dag.stats().confirmation_latencies_s) / max(
            len(dag.stats().confirmation_latencies_s), 1
        )
        assert dag_latency < bc_latency / 10


class TestCheckCapabilities:
    """The optional Ledger capabilities the fuzzer drives (repro.check)."""

    @pytest.fixture()
    def small_pair(self):
        blockchain = BlockchainLedger(params=FAST_BITCOIN, node_count=3, seed=1)
        blockchain.setup(accounts=3, initial_balance=1_000_000)
        dag = DagLedger(node_count=4, representative_count=2, seed=1)
        dag.setup(accounts=3, initial_balance=1_000_000)
        return blockchain, dag

    def test_deployment_view_exposes_machinery(self, small_pair):
        for ledger in small_pair:
            assert ledger.simulator is not None
            assert ledger.network is not None
            assert len(ledger.nodes) >= 3

    def test_healthy_audit_passes(self, small_pair):
        for ledger in small_pair:
            ledger.advance(30.0)
            report = ledger.audit()
            assert report is not None
            assert report.ok, report.render()

    def test_state_digest_deterministic_and_state_sensitive(self, small_pair):
        from repro.workloads.generators import PaymentEvent

        for ledger in small_pair:
            before = ledger.state_digest()
            assert before and before == ledger.state_digest()
            ledger.submit(PaymentEvent(
                time_s=0.0, sender_index=0, recipient_index=1, amount=100,
            ))
            ledger.advance(60.0)
            assert ledger.state_digest() != before

    def test_supply_corruption_surfaces_in_audit(self, small_pair):
        """Corrupting one replica's materialized state must trip the
        supply invariant on the next audit — the fuzzer's seeded-violation
        oracle."""
        for ledger in small_pair:
            assert ledger.inject_supply_corruption(777)
            report = ledger.audit()
            assert not report.ok
            assert any(v.invariant == "supply" for v in report.violations)
            assert "777" in report.render()

    def test_double_spend_never_survives_settlement(self, small_pair):
        from repro.workloads.generators import PaymentEvent

        for ledger in small_pair:
            ledger.advance(10.0)
            entries = ledger.submit_double_spend(PaymentEvent(
                time_s=0.0, sender_index=0, recipient_index=1, amount=333,
            ))
            assert len(entries) == 2
            ledger.advance(120.0)
            report = ledger.audit()
            assert report.ok, f"{ledger.paradigm}: {report.render()}"

    def test_refused_double_spend_leaves_no_trace(self):
        """A double spend whose honest leg the full mempool refuses is
        no conflict at all: nothing is sent and the wallet is rolled
        back, so the sender's next payment still confirms."""
        from repro.blockchain.mempool import MempoolLimits
        from repro.net.link import FAST_LINK
        from repro.workloads.generators import PaymentEvent

        ledger = BlockchainLedger(
            params=FAST_BITCOIN, node_count=3, link_params=FAST_LINK, seed=1,
            mempool_limits=MempoolLimits(max_count=1))
        ledger.setup(accounts=4, initial_balance=1_000_000)
        event = PaymentEvent(time_s=0.0, sender_index=0, recipient_index=1, amount=10)
        assert ledger.submit(event) is not None
        ledger.advance(1.0)  # gossip fills every replica's one-entry pool
        assert ledger.submit_double_spend(event) == []
        ledger.advance(200.0)
        assert ledger.submit(event) is not None
        ledger.advance(200.0)
        stats = ledger.stats()
        assert (stats.entries_created, stats.entries_confirmed) == (2, 2)
        assert ledger.balance(1) == 1_000_020
        assert ledger.balance(2) == 1_000_000  # the decoy never went out
        assert ledger.audit().ok


class TestComparison:
    def test_report_renders_both_dimensions(self, events):
        report = compare_ledgers(
            BlockchainLedger(params=FAST_BITCOIN, node_count=3, seed=1),
            DagLedger(node_count=4, representative_count=2, seed=1),
            events,
            accounts=4,
            initial_balance=1_000_000,
            settle_s=90.0,
        )
        text = report.render()
        assert "bitcoin" in text and "nano" in text
        assert "entries confirmed" in text
        assert "block-lattice" in text
        assert report.blockchain.entries_confirmed > 0
        assert report.dag.entries_confirmed > 0


class TestExperimentRegistry:
    def test_all_benches_exist(self):
        """Code/docs cannot drift: every registered experiment has its
        bench file on disk."""
        import pathlib

        bench_dir = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
        for experiment in EXPERIMENTS.values():
            assert (bench_dir / experiment.bench).exists(), experiment.experiment_id

    def test_ids_cover_paper_sections(self):
        refs = " ".join(e.paper_ref for e in EXPERIMENTS.values())
        for section in ("II", "III", "IV", "V", "VI"):
            assert f"§{section}" in refs or f"Fig" in refs

    def test_fifteen_plus_experiments(self):
        assert len(EXPERIMENTS) >= 19
