"""Tests for repro.common.rng."""

import random

import pytest

from repro.common.rng import (
    exponential,
    fork_rng,
    make_rng,
    weighted_choice,
    zipf_weights,
)


class TestMakeRng:
    def test_deterministic(self):
        assert make_rng(5).random() == make_rng(5).random()

    def test_different_seeds_differ(self):
        assert make_rng(1).random() != make_rng(2).random()


class TestForkRng:
    def test_labels_give_independent_streams(self):
        parent = make_rng(0)
        a = fork_rng(parent, "a")
        parent2 = make_rng(0)
        b = fork_rng(parent2, "b")
        assert a.random() != b.random()

    def test_same_label_same_parent_state_reproducible(self):
        a = fork_rng(make_rng(0), "x")
        b = fork_rng(make_rng(0), "x")
        assert [a.random() for _ in range(3)] == [b.random() for _ in range(3)]

    def test_fork_order_does_not_perturb_streams(self):
        """Regression: the docstring promise — adding a new consumer
        must not change the draws seen by existing ones."""
        parent = make_rng(42)
        a_first = fork_rng(parent, "a").random()
        parent = make_rng(42)
        fork_rng(parent, "new-consumer")  # interloper forks first
        a_second = fork_rng(parent, "a").random()
        assert a_first == a_second

    def test_fork_does_not_consume_parent_state(self):
        parent = make_rng(7)
        baseline = make_rng(7).random()
        fork_rng(parent, "anything")
        assert parent.random() == baseline

    def test_grandchild_streams_are_label_path_dependent(self):
        child_a = fork_rng(make_rng(0), "a")
        child_b = fork_rng(make_rng(0), "b")
        # Same leaf label under different parents: distinct streams.
        assert fork_rng(child_a, "leaf").random() != \
            fork_rng(child_b, "leaf").random()

    def test_plain_random_parent_still_forks(self):
        """Back-compat: a parent not created by make_rng falls back to
        the legacy draw-from-parent path."""
        parent = random.Random(3)
        child = fork_rng(parent, "legacy")
        assert 0.0 <= child.random() < 1.0


class TestExponential:
    def test_mean_close_to_inverse_rate(self):
        rng = make_rng(7)
        samples = [exponential(rng, 2.0) for _ in range(20_000)]
        mean = sum(samples) / len(samples)
        assert abs(mean - 0.5) < 0.02

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            exponential(make_rng(0), 0.0)


class TestWeightedChoice:
    def test_respects_weights(self):
        rng = make_rng(3)
        counts = {"a": 0, "b": 0}
        for _ in range(10_000):
            counts[weighted_choice(rng, ["a", "b"], [3.0, 1.0])] += 1
        ratio = counts["a"] / counts["b"]
        assert 2.5 < ratio < 3.5

    def test_single_item(self):
        assert weighted_choice(make_rng(0), ["only"], [1.0]) == "only"

    def test_zero_weight_never_chosen(self):
        rng = make_rng(1)
        for _ in range(1000):
            assert weighted_choice(rng, ["a", "b"], [1.0, 0.0]) == "a"

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            weighted_choice(make_rng(0), ["a"], [1.0, 2.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            weighted_choice(make_rng(0), [], [])

    def test_zero_total_raises(self):
        with pytest.raises(ValueError):
            weighted_choice(make_rng(0), ["a"], [0.0])


class TestZipfWeights:
    def test_alpha_zero_is_uniform(self):
        assert zipf_weights(4, 0.0) == [1.0, 1.0, 1.0, 1.0]

    def test_monotone_decreasing(self):
        weights = zipf_weights(10, 1.0)
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
