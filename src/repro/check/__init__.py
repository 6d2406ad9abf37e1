"""Differential fuzzing and in-loop invariant enforcement.

The paper's claims all reduce to a handful of global invariants — value
conservation, replica agreement, no surviving double spends (§III-IV).
``repro.check`` turns the fixed bench list into a *generator* of
scenarios:

* :mod:`repro.check.generator` — seeded property-based schedules of
  payments, double spends, churn and partitions, composed from
  :mod:`repro.workloads` and :mod:`repro.faults`;
* :mod:`repro.check.monitor` — an :class:`InvariantMonitor` that hooks
  the paradigm audits into the simulator via ``schedule_periodic`` so a
  violation is caught at the sim-time it first occurs, with the trace
  ring buffer captured as evidence;
* :mod:`repro.check.runner` — drives *both* paradigms through the
  unified :class:`~repro.core.ledger.Ledger` interface with the same
  schedule and fingerprints the run (the replay oracle asserts same
  seed → same fingerprint);
* :mod:`repro.check.shrink` — bisects a failing schedule to a minimal
  reproducing seed + prefix.

``python -m repro fuzz`` is the command-line entry point; ``pytest -m
fuzz`` selects the deterministic smoke suite.
"""

from repro.check.generator import (
    PROFILES,
    FuzzProfile,
    ScheduleOp,
    generate_schedule,
)
from repro.check.monitor import InvariantMonitor, ViolationRecord
from repro.check.runner import (
    FuzzOutcome,
    FuzzRunResult,
    run_campaign,
    run_schedule,
    run_seed,
)
from repro.check.shrink import ShrinkResult, shrink_schedule

__all__ = [
    "PROFILES",
    "FuzzProfile",
    "ScheduleOp",
    "generate_schedule",
    "InvariantMonitor",
    "ViolationRecord",
    "FuzzOutcome",
    "FuzzRunResult",
    "run_campaign",
    "run_schedule",
    "run_seed",
    "ShrinkResult",
    "shrink_schedule",
]
