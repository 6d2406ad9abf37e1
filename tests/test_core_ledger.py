"""Tests for the abstract Ledger helpers (repro.core.ledger)."""

from dataclasses import replace
from typing import List, Optional

import pytest

from repro.blockchain.params import BITCOIN
from repro.common.types import Hash
from repro.crypto.hashing import sha256
from repro.core.deploy import PARADIGMS, build_deployment
from repro.core.ledger import Ledger, LedgerStats
from repro.workloads.generators import PaymentEvent
from repro.workloads.open_loop import OpenLoopInjector


class FakeLedger(Ledger):
    """Minimal in-memory ledger recording the driver's behaviour."""

    name = "fake"
    paradigm = "test"

    def __init__(self, reject_amounts_over: Optional[int] = None):
        self._now = 0.0
        self.submissions: List[tuple] = []
        self.reject_over = reject_amounts_over

    def setup(self, accounts, initial_balance):
        self.accounts = accounts

    def submit(self, event: PaymentEvent):
        if self.reject_over is not None and event.amount > self.reject_over:
            return None
        self.submissions.append((self._now, event))
        return sha256(repr(event).encode())

    def advance(self, duration_s):
        self._now += duration_s

    def now(self):
        return self._now

    def is_confirmed(self, entry):
        return True

    def balance(self, account_index):
        return 0

    def serialized_size(self):
        return 0

    def stats(self):
        return LedgerStats(entries_created=len(self.submissions))


def ev(t, amount=10):
    return PaymentEvent(time_s=t, sender_index=0, recipient_index=1, amount=amount)


class TestRunWorkload:
    def test_events_delivered_at_their_timestamps(self):
        ledger = FakeLedger()
        ledger.run_workload([ev(5.0), ev(1.0), ev(3.0)], settle_s=0.0)
        times = [t for t, _ in ledger.submissions]
        assert times == [1.0, 3.0, 5.0]  # sorted and clock-aligned

    def test_settle_time_appended(self):
        ledger = FakeLedger()
        ledger.run_workload([ev(2.0)], settle_s=30.0)
        assert ledger.now() == 32.0

    def test_rejected_events_not_counted(self):
        ledger = FakeLedger(reject_amounts_over=50)
        entries = ledger.run_workload([ev(1.0, amount=10), ev(2.0, amount=100)])
        assert len(entries) == 1
        assert len(ledger.submissions) == 1

    def test_empty_workload(self):
        ledger = FakeLedger()
        assert ledger.run_workload([], settle_s=5.0) == []
        assert ledger.now() == 5.0

    def test_simultaneous_events_keep_order(self):
        ledger = FakeLedger()
        entries = ledger.run_workload([ev(1.0, 1), ev(1.0, 2)], settle_s=0.0)
        assert len(entries) == 2


#: Short blocks so a blockchain confirms inside the test's horizon.
KNOBS = {"blockchain": dict(chain_params=replace(
    BITCOIN, target_block_interval_s=15.0, confirmation_depth=2))}


def build(paradigm):
    return build_deployment(paradigm, node_count=4, seed=1,
                            **KNOBS.get(paradigm, {}))


@pytest.mark.parametrize("paradigm", PARADIGMS)
class TestSharedLifecycle:
    """The contract of what the ``Ledger`` base owns for every simulated
    deployment, whichever adapter sits on top."""

    def test_nothing_is_live_before_setup(self, paradigm):
        deployment = build(paradigm)
        ledger = deployment.ledger
        assert ledger.simulator is None and deployment.simulator is None
        assert ledger.network is None and deployment.network is None
        assert ledger.nodes == [] and deployment.nodes == []
        assert ledger.now() == 0.0
        with pytest.raises(ValueError, match="setup"):
            OpenLoopInjector.from_sim_stream(
                ledger, accounts=4, rate_tps=1.0, duration_s=10.0)

    def test_deployment_reads_the_ledgers_own_machinery(self, paradigm):
        deployment = build(paradigm).setup(4, 1_000_000)
        ledger = deployment.ledger
        assert deployment.simulator is ledger.simulator is not None
        assert deployment.network is ledger.network is not None
        assert deployment.nodes is ledger.nodes and len(ledger.nodes) == 4
        assert ledger.network.simulator is ledger.simulator

    def test_clock_and_confirmation_bookkeeping(self, paradigm):
        ledger = build(paradigm).setup(4, 1_000_000).ledger
        before = ledger.now()
        ledger.advance(12.5)
        assert ledger.now() == before + 12.5
        amounts = (5, 6, 7)
        entries = [ledger.submit(ev(0.0, amount)) for amount in amounts]
        assert all(entry is not None for entry in entries)
        assert ledger.stats().entries_created == 3
        ledger.advance(240.0)
        stats = ledger.stats()
        latencies = stats.confirmation_latencies_s
        assert all(latency >= 0 for latency in latencies)
        assert len(latencies) <= stats.entries_confirmed <= stats.entries_created
        assert stats.entries_confirmed == 3 == sum(map(ledger.is_confirmed, entries))
        assert ledger.balance(1) == 1_000_000 + sum(amounts)
