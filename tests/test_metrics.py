"""Tests for repro.metrics (stats, tables)."""

import math
import statistics

import pytest

from repro.metrics.stats import (
    aggregate_samples,
    binomial_ci,
    confidence_interval,
    percentile,
    summarize,
    windowed_rate,
)
from repro.metrics.tables import render_table


class TestPercentile:
    def test_median_odd(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_interpolation(self):
        assert percentile([0, 10], 50) == 5.0

    def test_extremes(self):
        values = list(range(100))
        assert percentile(values, 0) == 0
        assert percentile(values, 100) == 99

    def test_single_value(self):
        assert percentile([7], 95) == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)


class TestSummarize:
    def test_basic_stats(self):
        stats = summarize([1, 2, 3, 4, 5])
        assert stats.count == 5
        assert stats.mean == 3.0
        assert stats.minimum == 1 and stats.maximum == 5
        assert stats.p50 == 3

    def test_stdev(self):
        stats = summarize([2, 2, 2])
        assert stats.stdev == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_render(self):
        text = summarize([1.0, 2.0]).render(label="latency", unit="s")
        assert "latency" in text and "mean=1.500s" in text


class TestConfidenceIntervals:
    def test_interval_contains_mean(self):
        lo, hi = confidence_interval([1, 2, 3, 4, 5])
        assert lo < 3.0 < hi

    def test_single_sample_degenerate(self):
        assert confidence_interval([5.0]) == (5.0, 5.0)

    def test_sample_stdev_and_interval_match_statistics(self):
        # The spread of a handful of seeds estimates the population's:
        # n - 1 in the variance, not n (which is sqrt(4/5) too narrow
        # at five samples).
        values = [1, 2, 3, 4, 5]
        stdev = statistics.stdev(values)
        half = 1.96 * stdev / math.sqrt(len(values))
        assert summarize(values).stdev == pytest.approx(stdev)
        assert confidence_interval(values) == pytest.approx(
            (3.0 - half, 3.0 + half))
        aggregate = aggregate_samples(values)
        assert aggregate["stdev"] == pytest.approx(stdev)
        assert (aggregate["ci95_lo"], aggregate["ci95_hi"]) == pytest.approx(
            (3.0 - half, 3.0 + half))

    def test_binomial_wilson(self):
        lo, hi = binomial_ci(50, 100)
        assert lo < 0.5 < hi
        assert 0.0 <= lo and hi <= 1.0

    def test_binomial_extremes(self):
        lo, hi = binomial_ci(0, 100)
        assert lo == 0.0 and hi < 0.1
        with pytest.raises(ValueError):
            binomial_ci(5, 0)
        with pytest.raises(ValueError):
            binomial_ci(11, 10)


class TestWindowedRate:
    def test_final_event_is_counted(self):
        """Regression: with until defaulting to max(times), the last
        event used to be filtered out by the strict ``t < until`` and
        the closing window reported a rate of zero."""
        windows = windowed_rate([1.0, 2.0, 3.0], 1.0)
        assert windows == [(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)]

    def test_edge_events_belong_to_closing_window(self):
        # Windows are half-open (lo, hi]: an event exactly on an edge
        # counts toward the window that ends there.
        windows = windowed_rate([0.0, 1.0, 1.5], 1.0, until=2.0)
        assert windows == [(1.0, 2.0), (2.0, 1.0)]

    def test_explicit_until_still_truncates(self):
        windows = windowed_rate([0.5, 1.5, 9.0], 1.0, until=2.0)
        assert windows == [(1.0, 1.0), (2.0, 1.0)]

    def test_empty_and_validation(self):
        assert windowed_rate([], 1.0) == []
        with pytest.raises(ValueError):
            windowed_rate([1.0], 0.0)


class TestRenderTable:
    def test_alignment_and_headers(self):
        text = render_table(["name", "tps"], [["bitcoin", 7.0], ["nano", 306.0]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "bitcoin" in lines[2]
        assert "306" in lines[3]

    def test_title(self):
        text = render_table(["a"], [[1]], title="Table 1")
        assert text.splitlines()[0] == "Table 1"

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])

    def test_float_formatting(self):
        text = render_table(["v"], [[0.000001], [123456.0], [1.5]])
        assert "1.00e-06" in text
        assert "123,456" in text
