"""Tests for repro.metrics.slo (sustained-service reporting)."""

import pytest

from repro.metrics.slo import (
    detect_saturation_knee,
    load_point,
)


def _point(offered_tps, submitted, confirmed):
    return load_point(
        offered_tps, [1.0] * confirmed, submitted, duration_s=100.0
    )


class TestLoadPoint:
    def test_rates_and_percentile_ordering(self):
        latencies = [float(i) for i in range(1, 101)]
        point = load_point(2.0, latencies, submitted=200, duration_s=100.0)
        assert point.achieved_tps == 1.0
        assert 50.0 <= point.p50_s <= 51.0
        assert point.p50_s <= point.p95_s <= point.p99_s <= 100.0

    def test_empty_latencies_infinite_tail(self):
        point = load_point(1.0, [], submitted=10, duration_s=10.0)
        assert point.achieved_tps == 0.0
        assert point.p50_s == float("inf")
        assert point.p99_s == float("inf")

    def test_backpressure_fraction(self):
        point = load_point(1.0, [1.0], submitted=8, duration_s=10.0,
                           rejected=2)
        assert point.backpressure_fraction == pytest.approx(0.2)

    def test_carried_ratio_uses_actual_arrivals(self):
        # Poisson noise delivered 29 arrivals where 0.25 tps * 150 s
        # nominally promises 37.5; all confirmed still means keeping up.
        point = load_point(0.25, [1.0] * 29, submitted=29, duration_s=150.0)
        assert point.carried_ratio == pytest.approx(1.0)

    def test_as_metrics_keys(self):
        metrics = load_point(2.0, [1.0], submitted=1, duration_s=1.0
                             ).as_metrics("bc")
        assert set(metrics) == {
            "bc_2tps_achieved_tps", "bc_2tps_p50_s", "bc_2tps_p99_s",
            "bc_2tps_backpressure",
        }

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            load_point(1.0, [], submitted=0, duration_s=0.0)


class TestSaturationKnee:
    def test_knee_is_last_carried_load(self):
        points = [
            _point(1.0, 100, 100),
            _point(2.0, 200, 196),
            _point(4.0, 400, 120),
        ]
        assert detect_saturation_knee(points) == 2.0

    def test_order_independent(self):
        points = [
            _point(4.0, 400, 120),
            _point(1.0, 100, 100),
            _point(2.0, 200, 196),
        ]
        assert detect_saturation_knee(points) == 2.0

    def test_no_knee_when_never_saturated(self):
        points = [_point(1.0, 100, 100), _point(2.0, 200, 200)]
        assert detect_saturation_knee(points) is None

    def test_no_knee_when_always_saturated(self):
        assert detect_saturation_knee([_point(1.0, 100, 10)]) is None
