"""Tests for repro.workloads (generators and attacks)."""

import random

import pytest

from repro.confirmation.nakamoto import attacker_success_probability
from repro.workloads.attacks import DoubleSpendAttacker, SpamAttacker
from repro.workloads.generators import PaymentWorkload


class TestPaymentWorkload:
    def test_rate_matches(self):
        events = PaymentWorkload(accounts=10, rate_tps=5.0, seed=1).generate(1000.0)
        assert 4500 < len(events) < 5500

    def test_no_self_payments(self):
        events = PaymentWorkload(accounts=3, rate_tps=10.0, seed=2).generate(100.0)
        assert all(e.sender_index != e.recipient_index for e in events)

    def test_amounts_in_range(self):
        wl = PaymentWorkload(
            accounts=5, rate_tps=10.0, min_amount=10, max_amount=20, seed=3
        )
        assert all(10 <= e.amount <= 20 for e in wl.generate(50.0))

    def test_times_increasing(self):
        events = PaymentWorkload(accounts=5, rate_tps=10.0, seed=4).generate(50.0)
        assert all(a.time_s < b.time_s for a, b in zip(events, events[1:]))

    def test_zipf_concentrates_traffic(self):
        flat = PaymentWorkload(accounts=50, rate_tps=10.0, zipf_alpha=0.0, seed=5)
        skewed = PaymentWorkload(accounts=50, rate_tps=10.0, zipf_alpha=1.5, seed=5)

        def top_share(wl):
            events = wl.generate(2000.0)
            counts = {}
            for e in events:
                counts[e.sender_index] = counts.get(e.sender_index, 0) + 1
            return max(counts.values()) / len(events)

        assert top_share(skewed) > 3 * top_share(flat)

    def test_deterministic_by_seed(self):
        a = PaymentWorkload(accounts=5, rate_tps=5.0, seed=9).generate(100.0)
        b = PaymentWorkload(accounts=5, rate_tps=5.0, seed=9).generate(100.0)
        assert a == b

    def test_generate_count(self):
        events = PaymentWorkload(accounts=5, rate_tps=5.0, seed=1).generate_count(37)
        assert len(events) == 37

    def test_validation(self):
        with pytest.raises(ValueError):
            PaymentWorkload(accounts=1, rate_tps=1.0)
        with pytest.raises(ValueError):
            PaymentWorkload(accounts=2, rate_tps=0.0)
        with pytest.raises(ValueError):
            PaymentWorkload(accounts=2, rate_tps=1.0, min_amount=5, max_amount=4)


class TestDoubleSpendAttacker:
    def test_monte_carlo_matches_nakamoto(self):
        """E15's core check: simulation converges to the closed form."""
        for share, depth in ((0.1, 2), (0.2, 3), (0.3, 4)):
            attacker = DoubleSpendAttacker(share, depth, random.Random(42))
            empirical = attacker.success_rate(trials=4000)
            analytic = attacker_success_probability(share, depth)
            assert empirical == pytest.approx(analytic, abs=0.03)

    def test_stronger_attacker_wins_more(self):
        weak = DoubleSpendAttacker(0.1, 3, random.Random(0)).success_rate(2000)
        strong = DoubleSpendAttacker(0.4, 3, random.Random(0)).success_rate(2000)
        assert strong > weak

    def test_deeper_confirmation_wins_less(self):
        shallow = DoubleSpendAttacker(0.25, 1, random.Random(1)).success_rate(2000)
        deep = DoubleSpendAttacker(0.25, 6, random.Random(1)).success_rate(2000)
        assert deep < shallow

    def test_outcome_contains_race_detail(self):
        outcome = DoubleSpendAttacker(0.3, 2, random.Random(2)).run_once()
        assert outcome.honest_blocks >= 2

    def test_validation(self):
        with pytest.raises(ValueError):
            DoubleSpendAttacker(0.0, 1, random.Random(0))
        with pytest.raises(ValueError):
            DoubleSpendAttacker(0.5, 0, random.Random(0))
        with pytest.raises(ValueError):
            DoubleSpendAttacker(0.3, 1, random.Random(0)).success_rate(0)


class TestSpamAttacker:
    def test_spam_rate_bounded_by_work(self):
        """Section III-B: anti-spam PoW caps the spam rate at
        hashrate/difficulty."""
        attacker = SpamAttacker(hashrate_hps=1_000_000, work_difficulty=4096)
        assert attacker.max_spam_tps == pytest.approx(1_000_000 / 4096)

    def test_raising_difficulty_throttles(self):
        cheap = SpamAttacker(1e6, 1024).max_spam_tps
        costly = SpamAttacker(1e6, 1 << 20).max_spam_tps
        assert cheap / costly == pytest.approx(1024)

    def test_campaign_cost(self):
        attacker = SpamAttacker(1e6, 4096)
        cost = attacker.campaign_cost(10_000)
        assert cost.total_hashes == 10_000 * 4096
        assert cost.wall_clock_s == pytest.approx(10_000 * 4096 / 1e6)

    def test_legitimate_user_unaffected(self):
        """One tx costs milliseconds; 1M spam txs cost over an hour."""
        attacker = SpamAttacker(1e6, 4096)
        single = attacker.campaign_cost(1).wall_clock_s
        flood = attacker.campaign_cost(1_000_000).wall_clock_s
        assert single < 0.01
        assert flood > 3600

    def test_validation(self):
        with pytest.raises(ValueError):
            SpamAttacker(0, 100)
        with pytest.raises(ValueError):
            SpamAttacker(1e6, 100).campaign_cost(-1)
