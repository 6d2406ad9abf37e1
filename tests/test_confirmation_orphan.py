"""Tests for repro.confirmation.orphan and dag_confirmation."""

import pytest

from repro.confirmation.dag_confirmation import (
    blockchain_vs_dag_latency,
    expected_confirmation_latency,
    is_confirmed,
    vote_confidence,
)
from repro.confirmation.orphan import (
    expected_orphan_rate,
    propagation_delay_for_block,
)


class TestOrphanRate:
    def test_zero_delay_no_orphans(self):
        assert expected_orphan_rate(0.0, 600.0) == 0.0

    def test_rate_increases_with_delay(self):
        assert expected_orphan_rate(10, 600) < expected_orphan_rate(60, 600)

    def test_rate_decreases_with_interval(self):
        """Why Bitcoin tolerates 10-minute blocks: same delay, longer
        interval, fewer soft forks."""
        assert expected_orphan_rate(10, 600) < expected_orphan_rate(10, 15)

    def test_known_value(self):
        import math

        assert expected_orphan_rate(600, 600) == pytest.approx(1 - math.exp(-1))

    def test_curve_shape(self):
        rates = [expected_orphan_rate(10.0, interval)
                 for interval in (15.0, 60.0, 600.0)]
        assert rates[0] > rates[1] > rates[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_orphan_rate(-1, 600)
        with pytest.raises(ValueError):
            expected_orphan_rate(1, 0)


class TestPropagationDelay:
    def test_bigger_blocks_slower(self):
        small = propagation_delay_for_block(1_000_000, 50e6, 0.1)
        big = propagation_delay_for_block(8_000_000, 50e6, 0.1)
        assert big > small

    def test_hop_scaling(self):
        one = propagation_delay_for_block(1_000_000, 50e6, 0.1, hops=1)
        three = propagation_delay_for_block(1_000_000, 50e6, 0.1, hops=3)
        assert three == pytest.approx(3 * one)

    def test_validation(self):
        with pytest.raises(ValueError):
            propagation_delay_for_block(-1, 1, 0.1)


class TestVoteConfidence:
    def test_fraction(self):
        assert vote_confidence(60, 100) == 0.6

    def test_capped_at_one(self):
        assert vote_confidence(150, 100) == 1.0

    def test_is_confirmed_threshold(self):
        assert is_confirmed(51, 100, 0.5)
        assert not is_confirmed(50, 100, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            vote_confidence(1, 0)
        with pytest.raises(ValueError):
            vote_confidence(-1, 10)


class TestLatencyModels:
    def test_quorum_reachable_in_one_round(self):
        latency = expected_confirmation_latency(0.4, [50, 30, 20], 0.5)
        assert latency == 0.4

    def test_quorum_unreachable(self):
        # 60% of weight offline-equivalent: quorum 0.5 of *total* passed in
        # as distribution can't be crossed by the 0.4 share present.
        latency = expected_confirmation_latency(0.4, [40], 1.0)
        assert latency == float("inf")

    def test_headline_comparison(self):
        """E5: Bitcoin 6 x 600s = 3600s vs one vote round."""
        blockchain, dag = blockchain_vs_dag_latency(600.0, 6, 0.5)
        assert blockchain == 3600.0
        assert dag == 0.5
        assert blockchain / dag > 1000

    def test_empty_distribution_rejected(self):
        with pytest.raises(ValueError):
            expected_confirmation_latency(0.1, [], 0.5)
