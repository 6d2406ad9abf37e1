"""Tests for repro.perf (microbenchmark suite + regression gate).

Benches run here at tiny scales — these tests check plumbing (results,
reports, the CI gate's arithmetic), never absolute speed.
"""

import json
from pathlib import Path

import pytest

from repro.perf.profiling import SORT_KEYS, profile_bench
from repro.perf.suite import (
    BENCHES,
    BenchResult,
    build_report,
    calibration_score,
    check_regressions,
    render_results,
    run_bench,
    run_suite,
)


def _report(benches, calibration):
    """Minimal report document for gate tests."""
    return {
        "schema": 1,
        "calibration_ops_per_s": calibration,
        "benchmarks": {
            name: {"ops": 100, "wall_s": 1.0, "ops_per_s": ops}
            for name, ops in benches.items()
        },
    }


class TestRunBench:
    def test_registry_names_are_runnable(self):
        # Every registered bench accepts a scale knob; exercise the two
        # cheapest end-to-end.
        assert "event_loop" in BENCHES and "gossip_broadcast" in BENCHES
        result = run_bench("event_loop", scale=0.01)
        assert result.ops > 0
        assert result.wall_s > 0
        assert result.ops_per_s == pytest.approx(result.ops / result.wall_s)

    def test_committed_reports_name_only_registered_benches(self):
        """Both committed reports list rows of the registry and nothing
        else, and every gated row has a reference denominator (a row
        without one reports no speedup and drifts unnoticed)."""
        root = Path(__file__).resolve().parent.parent
        gate = json.loads((root / "BENCH_PERF.json").read_text())
        reference = json.loads(
            (root / "benchmarks/perf/baseline_unoptimized.json").read_text())
        assert set(gate["benchmarks"]) <= set(BENCHES)
        assert set(reference["benchmarks"]) <= set(BENCHES)
        assert set(gate["benchmarks"]) <= set(reference["benchmarks"])

    def test_unknown_bench_rejected(self):
        with pytest.raises(KeyError):
            run_suite(["no_such_bench"])

    def test_run_suite_subset_with_progress(self):
        seen = []
        results = run_suite(["event_cancel"], scale=0.01, progress=seen.append)
        assert list(results) == ["event_cancel"]
        assert seen == [results["event_cancel"]]

    def test_calibration_is_positive(self):
        assert calibration_score(spins=10_000, repeats=1) > 0


class TestBuildReport:
    def test_shape_and_json_roundtrip(self):
        results = {"x": BenchResult(name="x", ops=100, wall_s=0.5)}
        report = build_report(results, calibration=1000.0, scale=0.1)
        parsed = json.loads(json.dumps(report))
        assert parsed["schema"] == 1
        assert parsed["scale"] == 0.1
        assert parsed["benchmarks"]["x"]["ops_per_s"] == 200.0

    def test_speedup_vs_reference_normalized(self):
        results = {"x": BenchResult(name="x", ops=400, wall_s=1.0)}
        # Reference ran at 200 ops/s on a machine half as fast: raw
        # speedup is 2x but normalized speedup is 1x.
        reference = _report({"x": 200.0}, calibration=500.0)
        report = build_report(results, calibration=1000.0, reference=reference)
        assert report["speedup_vs_reference"]["x"] == 2.0
        assert report["speedup_vs_reference_normalized"]["x"] == 1.0

    def test_reference_missing_bench_skipped(self):
        results = {"new_bench": BenchResult(name="new_bench", ops=1, wall_s=1.0)}
        report = build_report(
            results, calibration=1.0, reference=_report({}, calibration=1.0)
        )
        assert report["speedup_vs_reference"] == {}


class TestCheckRegressions:
    def test_no_failures_when_equal(self):
        base = _report({"x": 100.0}, calibration=1000.0)
        assert check_regressions(base, base) == []

    def test_large_regression_fails(self):
        base = _report({"x": 100.0}, calibration=1000.0)
        cur = _report({"x": 60.0}, calibration=1000.0)
        failures = check_regressions(cur, base, tolerance=0.30)
        assert len(failures) == 1
        assert "x" in failures[0]

    def test_regression_within_tolerance_passes(self):
        base = _report({"x": 100.0}, calibration=1000.0)
        cur = _report({"x": 75.0}, calibration=1000.0)
        assert check_regressions(cur, base, tolerance=0.30) == []

    def test_calibration_normalizes_slow_machine(self):
        # Half the throughput on a machine measured half as fast is NOT a
        # regression once normalized.
        base = _report({"x": 100.0}, calibration=1000.0)
        cur = _report({"x": 50.0}, calibration=500.0)
        assert check_regressions(cur, base, tolerance=0.30) == []

    def test_bench_only_in_baseline_skipped(self):
        base = _report({"x": 100.0, "gone": 5.0}, calibration=1000.0)
        cur = _report({"x": 100.0}, calibration=1000.0)
        assert check_regressions(cur, base) == []


class TestRendering:
    def test_render_results_table(self):
        results = {"x": BenchResult(name="x", ops=100, wall_s=0.5)}
        table = render_results(results)
        assert "x" in table and "200.0" in table


class TestProfiling:
    def test_profile_bench_reports_hotspots(self):
        text, wall = profile_bench("event_loop", scale=0.01, top=5)
        assert wall > 0
        # cProfile output should name the simulator's run loop.
        assert "run" in text

    def test_profile_sort_keys(self):
        assert {"cumulative", "tottime", "calls"} <= set(SORT_KEYS)

    def test_profile_unknown_bench_rejected(self):
        with pytest.raises(KeyError):
            profile_bench("no_such_bench")
