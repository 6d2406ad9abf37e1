"""In-loop invariant enforcement.

The post-hoc audits (:mod:`repro.core.invariants`) only say whether a
finished run ended in a bad state; by then the interesting part of the
trace is gone.  :class:`InvariantMonitor` hooks an audit callable into a
running :class:`~repro.sim.simulator.Simulator` via
``schedule_periodic``, so a violation is caught at the sim-time of its
*first* observation and the tracer's ring buffer — the last N network
events leading up to it — is captured as evidence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional

from repro.core.invariants import AuditReport, Violation
from repro.protocol import protocol_nodes
from repro.sim.simulator import PeriodicTask, Simulator
from repro.trace import Tracer

#: Invariants that are *eventual* in both paradigms: replicas may
#: legitimately disagree mid-propagation (Section IV's disagreement
#: windows) and only have to reconverge by quiescence.  In-loop ticks
#: ignore these; the final quiescent check enforces them.
EVENTUAL_INVARIANTS: FrozenSet[str] = frozenset({"agreement", "liveness"})


def intake_backlog(nodes: Iterable[Any]) -> Dict[str, int]:
    """Artifacts still parked in each node's intake layer.

    Keys on the shared :mod:`repro.protocol` interfaces, so the same
    probe covers every paradigm.  A nonzero backlog *after quiescence*
    means some dependency never arrived anywhere — the stuck-entry
    signal the parity matrix and the fuzzer report alongside invariant
    violations (mid-run it is ordinary in-flight disagreement).
    """
    return {
        node.node_id: len(node.intake)
        for node in protocol_nodes(nodes)
        if len(node.intake)
    }


@dataclass
class ViolationRecord:
    """A violation caught in-loop, with the trace evidence around it."""

    time_s: float
    violations: List[Violation]
    #: the tracer ring buffer at detection time (most recent events)
    evidence: List[Dict[str, Any]] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"t={self.time_s:.3f}s:"]
        lines += [f"  [{v.invariant}] {v.detail}" for v in self.violations]
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "time_s": self.time_s,
            "violations": [
                {"invariant": v.invariant, "detail": v.detail}
                for v in self.violations
            ],
            "evidence": self.evidence,
        }


class InvariantMonitor:
    """Periodic in-simulation audit with evidence capture.

    ``audit_fn`` is any zero-argument callable returning an
    :class:`AuditReport` (or ``None`` for "cannot audit right now" —
    treated as a pass).  Typically it is ``ledger.audit`` bound to an
    adapter.  On the first failing audit the monitor records a
    :class:`ViolationRecord`, snapshots the tracer ring buffer, and
    detaches itself so the run continues to completion with the
    first-occurrence timestamp preserved.

    Periodic ticks enforce *safety* invariants only (supply,
    double-spend, linkage): those must hold at every instant.
    The :data:`EVENTUAL_INVARIANTS` are transiently violable while gossip
    propagates, so they only count when a *strict* check — the final,
    quiescent one — still sees them.
    """

    def __init__(
        self,
        audit_fn: Callable[[], Optional[AuditReport]],
        *,
        tracer: Optional[Tracer] = None,
        interval_s: float = 5.0,
        evidence_events: int = 256,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if evidence_events < 0:
            raise ValueError("evidence_events must be non-negative")
        self.audit_fn = audit_fn
        self.tracer = tracer
        self.interval_s = interval_s
        self.evidence_events = evidence_events
        self.audits_run = 0
        #: count of ticks where only eventual invariants were violated
        self.transient_disagreements = 0
        self.violation: Optional[ViolationRecord] = None
        self._task: Optional[PeriodicTask] = None
        self._simulator: Optional[Simulator] = None

    # ------------------------------------------------------------ lifecycle

    def attach(self, simulator: Simulator,
               until: Optional[float] = None) -> "InvariantMonitor":
        """Start periodic audits on ``simulator`` (chainable)."""
        if self._task is not None and self._task.active:
            raise RuntimeError("monitor already attached")
        self._simulator = simulator
        self._task = simulator.schedule_periodic(
            self.interval_s, self._tick, until=until
        )
        return self

    def detach(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    @property
    def attached(self) -> bool:
        return self._task is not None and self._task.active

    @property
    def ok(self) -> bool:
        return self.violation is None

    # ------------------------------------------------------------- auditing

    def _tick(self) -> None:
        self.check_now()

    def check_now(self, strict: bool = False) -> Optional[ViolationRecord]:
        """Run one audit immediately; record + return the violation if
        the state is bad (keeps only the first occurrence).

        With ``strict=False`` (the periodic tick), violations of
        eventual invariants alone are tolerated as in-flight
        disagreement; ``strict=True`` (the quiescent final check)
        enforces every invariant.
        """
        report = self.audit_fn()
        self.audits_run += 1
        if report is None or report.ok:
            return None
        if not strict:
            hard = [v for v in report.violations
                    if v.invariant not in EVENTUAL_INVARIANTS]
            if not hard:
                self.transient_disagreements += 1
                return None
            report = AuditReport(violations=hard)
        if self.violation is None:
            now = self._simulator.now if self._simulator is not None else 0.0
            evidence: List[Dict[str, Any]] = []
            if self.tracer is not None and self.evidence_events:
                evidence = [
                    event.to_dict()
                    for event in self.tracer.events(last=self.evidence_events)
                ]
            self.violation = ViolationRecord(
                time_s=now,
                violations=list(report.violations),
                evidence=evidence,
            )
            self.detach()
        return self.violation

    # ------------------------------------------------------------- evidence

    def dump_evidence(self, path: str) -> int:
        """Write the captured violation (header + evidence events) as
        JSONL; returns records written (0 when no violation)."""
        if self.violation is None:
            return 0
        header = self.violation.to_dict()
        evidence = header.pop("evidence")
        with open(path, "w") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for event in evidence:
                handle.write(json.dumps(event, sort_keys=True, default=str)
                             + "\n")
        return 1 + len(evidence)
