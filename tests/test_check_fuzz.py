"""Tests for repro.check (differential fuzzing + in-loop invariants).

The whole module is marked ``fuzz``: ``pytest -m fuzz`` runs the
deterministic smoke campaign CI's fuzz-smoke job executes.
"""

from dataclasses import replace

import pytest

from repro.check import (
    PROFILES,
    InvariantMonitor,
    ScheduleOp,
    generate_schedule,
    run_schedule,
    run_seed,
    shrink_schedule,
)
from repro.check.generator import OP_CORRUPT, OP_PAYMENT, profile_named
from repro.core.invariants import AuditReport
from repro.sim.simulator import Simulator

pytestmark = pytest.mark.fuzz


class TestGenerator:
    def test_same_seed_same_schedule(self):
        a = generate_schedule(5, PROFILES["adversarial"])
        b = generate_schedule(5, PROFILES["adversarial"])
        assert a.ops == b.ops

    def test_different_seeds_differ(self):
        a = generate_schedule(1, PROFILES["baseline"])
        b = generate_schedule(2, PROFILES["baseline"])
        assert a.ops != b.ops

    def test_ops_time_ordered(self):
        schedule = generate_schedule(3, PROFILES["adversarial"])
        times = [op.time_s for op in schedule.ops]
        assert times == sorted(times)

    def test_fault_families_are_independent_streams(self):
        """Enabling churn must not perturb the payment timeline."""
        quiet = generate_schedule(9, PROFILES["baseline"])
        churny = generate_schedule(
            9, replace(PROFILES["baseline"], churn_nodes=1)
        )
        payments = lambda s: [o for o in s.ops if o.kind == OP_PAYMENT]  # noqa: E731
        assert payments(quiet) == payments(churny)

    def test_profile_contents(self):
        conflict = generate_schedule(1, PROFILES["conflict"])
        assert any(op.kind == "double_spend" for op in conflict.ops)
        seeded = generate_schedule(1, PROFILES["seeded-violation"])
        assert sum(1 for op in seeded.ops if op.kind == OP_CORRUPT) == 1

    def test_op_roundtrips_through_dict(self):
        for op in generate_schedule(4, PROFILES["adversarial"]).ops:
            clone = ScheduleOp.from_dict(op.to_dict())
            assert clone.kind == op.kind
            assert clone.time_s == pytest.approx(op.time_s, abs=1e-6)

    def test_profile_named_overrides(self):
        profile = profile_named("baseline", audit_interval_s=2.5)
        assert profile.audit_interval_s == 2.5
        with pytest.raises(KeyError):
            profile_named("no-such-profile")


class TestMonitor:
    def _report(self, *violations):
        report = AuditReport()
        for invariant, detail in violations:
            report.add(invariant, detail)
        return report

    def test_periodic_attach_catches_violation_at_sim_time(self):
        sim = Simulator()
        bad_after = 7.0
        audit = lambda: (  # noqa: E731
            self._report(("supply", "boom")) if sim.now >= bad_after
            else self._report()
        )
        monitor = InvariantMonitor(audit, interval_s=2.0).attach(sim, until=20.0)
        sim.run(until=20.0)
        assert not monitor.ok
        assert monitor.violation.time_s == 8.0  # first tick past 7.0
        # halt_on_violation detached the task; later ticks never audited.
        assert monitor.audits_run == 4

    def test_eventual_violations_tolerated_until_strict(self):
        monitor = InvariantMonitor(
            lambda: self._report(("agreement", "heads diverge"))
        )
        assert monitor.check_now() is None
        assert monitor.ok
        assert monitor.transient_disagreements == 1
        assert monitor.check_now(strict=True) is not None
        assert not monitor.ok

    def test_safety_violation_filters_out_eventual_noise(self):
        monitor = InvariantMonitor(
            lambda: self._report(("agreement", "transient"),
                                 ("supply", "real"))
        )
        record = monitor.check_now()
        assert record is not None
        assert [v.invariant for v in record.violations] == ["supply"]

    def test_none_report_counts_as_pass(self):
        monitor = InvariantMonitor(lambda: None)
        assert monitor.check_now(strict=True) is None
        assert monitor.audits_run == 1

    def test_evidence_is_the_tail_of_the_trace(self):
        from repro.trace import Tracer

        tracer = Tracer()
        for i in range(10):
            tracer.record_schedule(float(i), "a", "b", "tx")
        monitor = InvariantMonitor(
            lambda: self._report(("supply", "boom")), tracer=tracer,
            evidence_events=3)
        record = monitor.check_now()
        assert [event["t"] for event in record.evidence] == [7.0, 8.0, 9.0]
        assert record.evidence == [e.to_dict() for e in tracer.events()[-3:]]

    def test_dump_evidence(self, tmp_path):
        monitor = InvariantMonitor(lambda: self._report(("supply", "boom")))
        monitor.check_now()
        path = tmp_path / "evidence.jsonl"
        assert monitor.dump_evidence(str(path)) == 1
        assert "supply" in path.read_text()


class TestRunner:
    def test_baseline_clean_on_both_paradigms(self):
        outcome = run_seed(1, PROFILES["baseline"])
        assert outcome.ok, [r.violation.render() for r in outcome.failing()]
        assert {r.paradigm for r in outcome.results} == {"blockchain", "dag"}
        for result in outcome.results:
            assert result.audits_run > 1  # the monitor actually ran in-loop
            assert result.ops_applied > 0

    def test_replay_oracle_same_fingerprint(self):
        first = run_seed(2, PROFILES["conflict"])
        second = run_seed(2, PROFILES["conflict"])
        for a, b in zip(first.results, second.results):
            assert a.fingerprint == b.fingerprint

    def test_conflicts_resolved_without_violation(self):
        outcome = run_seed(3, PROFILES["conflict"])
        assert outcome.ok, [r.violation.render() for r in outcome.failing()]

    @pytest.mark.parametrize("paradigm", ["blockchain", "dag"])
    def test_seeded_corruption_caught_in_loop(self, paradigm):
        profile = PROFILES["seeded-violation"]
        schedule = generate_schedule(1, profile)
        result = run_schedule(schedule, paradigm)
        assert result.violation is not None
        assert any(v.invariant == "supply"
                   for v in result.violation.violations)
        # Caught in-loop: at an audit tick after the corruption landed,
        # well before the run's end (times are absolute sim time; setup
        # advances the clock before the schedule replays).
        caught_after = result.violation.time_s - result.started_at_s
        assert profile.corrupt_at_s <= caught_after
        assert caught_after <= profile.corrupt_at_s + 2 * profile.audit_interval_s
        assert result.violation.evidence  # ring buffer captured


class TestShrink:
    def test_minimizes_seeded_violation_to_corrupt_op(self):
        schedule = generate_schedule(1, PROFILES["seeded-violation"])
        assert len(schedule.ops) > 1
        result = shrink_schedule(schedule, "blockchain")
        assert result is not None
        assert [op.kind for op in result.schedule.ops] == [OP_CORRUPT]
        assert result.original_ops == len(schedule.ops)

    def test_healthy_schedule_returns_none(self):
        schedule = generate_schedule(1, PROFILES["baseline"])
        assert shrink_schedule(schedule, "dag") is None


class TestCli:
    def test_fuzz_smoke_exit_zero(self, capsys):
        from repro.cli import main

        assert main(["fuzz", "--seeds", "2", "--check-determinism"]) == 0
        assert "0/2 seeds with violations" in capsys.readouterr().out

    def test_fuzz_seeded_violation_exits_nonzero_with_artifact(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        code = main([
            "fuzz", "--seeds", "1", "--profile", "seeded-violation",
            "--paradigm", "blockchain", "--shrink",
            "--artifact-dir", str(tmp_path),
        ])
        assert code == 1
        artifacts = list(tmp_path.glob("fuzz-*.json"))
        assert len(artifacts) == 1
        assert "[supply]" in capsys.readouterr().out

    def test_fuzz_unknown_profile_rejected(self, capsys):
        from repro.cli import main

        assert main(["fuzz", "--profile", "bogus"]) == 2
