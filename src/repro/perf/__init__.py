"""repro.perf — microbenchmarks and profiling for the hot paths.

* :mod:`repro.perf.suite`   — deterministic microbenchmarks (event loop,
  gossip, hashing, lattice settlement), report building, and the
  regression gate used by CI.
* :mod:`repro.perf.profiling` — cProfile wrapper with top-N hotspot
  output, exposed as ``repro profile <bench>``.

See ``docs/performance.md`` for the workflow.
"""

from repro.perf.suite import (
    BENCHES,
    Bench,
    BenchResult,
    build_report,
    calibration_score,
    check_regressions,
    render_results,
    run_bench,
    run_suite,
)

__all__ = [
    "BENCHES",
    "Bench",
    "BenchResult",
    "build_report",
    "calibration_score",
    "check_regressions",
    "render_results",
    "run_bench",
    "run_suite",
]
