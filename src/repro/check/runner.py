"""Differential fuzz execution.

One *run* replays a generated :class:`~repro.check.generator.Schedule`
against one paradigm through the unified
:class:`~repro.core.ledger.Ledger` interface, with an
:class:`~repro.check.monitor.InvariantMonitor` auditing the deployment
in-loop.  A run ends with a *fingerprint* — a digest of the op outcomes,
the final replica state and the cumulative trace counters — and the
replay oracle is simply: same ``(seed, profile, paradigm)`` → same
fingerprint.  A *campaign* sweeps seeds over both paradigms, optionally
shrinking any failure to a minimal schedule and writing failing-seed
artifacts for CI to upload.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.blockchain.mempool import MempoolLimits
from repro.blockchain.params import BITCOIN
from repro.check.generator import (
    OP_CORRUPT,
    OP_CRASH,
    OP_DOUBLE_SPEND,
    OP_HEAL,
    OP_PARTITION,
    OP_PAYMENT,
    OP_RESTART,
    OP_TIP_SPAM,
    FuzzProfile,
    Schedule,
    generate_schedule,
)
from repro.check.monitor import InvariantMonitor, ViolationRecord, intake_backlog
from repro.core.deploy import Deployment, build_deployment
from repro.core.ledger import Ledger
from repro.faults import ByzantineSpec, FaultInjector

#: Default differential pair: the two paradigms the source paper
#: compares.  BFT joins only by explicit selection (``--paradigm``).
PARADIGMS = ("blockchain", "dag")

#: Everything the fuzzer *can* drive, including the BFT engine.
ALL_PARADIGMS = ("blockchain", "dag", "bft")

#: Each paradigm's native adversary family when a profile requests
#: Byzantine replicas without naming a paradigm-specific behavior.
_NATIVE_BEHAVIOR = {"blockchain": "selfish", "dag": "tip-spam"}


def build_fuzz_deployment(paradigm: str, seed: int,
                          profile: FuzzProfile) -> Deployment:
    """Stand up a fuzz-sized deployment of ``paradigm``.

    Deployments are deliberately small (few nodes, short block
    intervals) so a 50-seed campaign stays in smoke-test territory while
    still exercising gossip, mining/elections/quorum formation and
    confirmation.  Everything funnels through
    :func:`repro.core.deploy.build_deployment`, so the fuzzer drives
    exactly the deployments the benches and CLI do.
    """
    if paradigm not in ALL_PARADIGMS:
        raise ValueError(f"unknown paradigm {paradigm!r} "
                         f"(choose from {', '.join(ALL_PARADIGMS)})")
    faults = None
    if profile.byzantine_nodes > 0:
        behavior = (profile.byzantine_behavior if paradigm == "bft"
                    else _NATIVE_BEHAVIOR[paradigm])
        faults = ByzantineSpec(
            count=profile.byzantine_nodes,
            behavior=behavior,
            f_override=(profile.quorum_f_override if paradigm == "bft"
                        else None),
        )
    scale = profile.topology_scale
    if paradigm == "blockchain":
        params = replace(
            BITCOIN,
            name="fuzz-chain",
            target_block_interval_s=profile.block_interval_s,
            confirmation_depth=profile.confirmation_depth,
        )
        limits = None
        if profile.mempool_max_count is not None:
            limits = MempoolLimits(max_count=profile.mempool_max_count)
        return build_deployment(
            "blockchain", faults=faults, chain_params=params,
            node_count=profile.node_count, seed=seed, mempool_limits=limits,
            prune_interval_s=profile.prune_interval_s,
            prune_keep_depth=profile.prune_keep_depth,
            topology_scale=scale,
        )
    if paradigm == "dag":
        return build_deployment(
            "dag", faults=faults, node_count=profile.node_count, seed=seed,
            prune_interval_s=profile.prune_interval_s, topology_scale=scale,
        )
    return build_deployment(
        "bft", faults=faults, node_count=profile.node_count, seed=seed,
        view_timeout_s=profile.view_timeout_s,
        topology_scale=scale,
    )


@dataclass
class FuzzRunResult:
    """Outcome of replaying one schedule on one paradigm."""

    paradigm: str
    seed: int
    profile: str
    ops_applied: int
    ops_dropped: int
    fingerprint: str
    violation: Optional[ViolationRecord]
    audits_run: int
    #: sim time at which the schedule started replaying (setup, e.g.
    #: account funding, advances the clock first)
    started_at_s: float
    duration_s: float
    #: node -> artifacts still parked in its intake layer at quiescence
    #: (recorded, not fatal: a run can end with a dependency that never
    #: arrived without violating any safety invariant)
    intake_backlog: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.violation is None

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "paradigm": self.paradigm,
            "seed": self.seed,
            "profile": self.profile,
            "ops_applied": self.ops_applied,
            "ops_dropped": self.ops_dropped,
            "fingerprint": self.fingerprint,
            "audits_run": self.audits_run,
            "duration_s": self.duration_s,
        }
        if self.intake_backlog:
            record["intake_backlog"] = dict(self.intake_backlog)
        if self.violation is not None:
            record["violation"] = self.violation.to_dict()
        return record


@dataclass
class FuzzOutcome:
    """One seed's differential verdict across paradigms."""

    seed: int
    results: List[FuzzRunResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def failing(self) -> List[FuzzRunResult]:
        return [r for r in self.results if not r.ok]


def _apply_op(op, ledger: Ledger, injector: FaultInjector,
              node_ids: Sequence[str]) -> str:
    """Apply one schedule op right now; returns an outcome tag for the
    fingerprint's op log."""
    if op.kind == OP_PAYMENT:
        entry = ledger.submit(op.to_payment())
        return "ok" if entry is not None else "dropped"
    if op.kind == OP_DOUBLE_SPEND:
        entries = ledger.submit_double_spend(op.to_payment())
        return f"conflict:{len(entries)}"
    if op.kind == OP_CRASH:
        injector.crash(node_ids[op.node % len(node_ids)])
        return "ok"
    if op.kind == OP_RESTART:
        injector.restart(node_ids[op.node % len(node_ids)])
        return "ok"
    if op.kind == OP_PARTITION:
        if len(node_ids) < 2:
            return "skipped"
        half = len(node_ids) // 2
        injector.partition([node_ids[:half], node_ids[half:]])
        return "ok"
    if op.kind == OP_HEAL:
        injector.heal()
        return "ok"
    if op.kind == OP_CORRUPT:
        return "ok" if ledger.inject_supply_corruption(op.amount) else "skipped"
    if op.kind == OP_TIP_SPAM:
        entries = ledger.submit_tip_spam(op.to_payment(),
                                         fanout=op.count or 3)
        return f"spam:{len(entries)}"
    return "unknown"


def run_schedule(schedule: Schedule, paradigm: str) -> FuzzRunResult:
    """Replay ``schedule`` on ``paradigm`` with in-loop auditing.

    The run goes through the uniform
    :class:`~repro.core.deploy.Deployment` handle so a profile's
    ``topology_scale`` takes effect (aggregate clusters attach / the
    sharded plane engages).
    """
    profile = schedule.profile
    deployment = build_fuzz_deployment(paradigm, schedule.seed, profile)
    deployment.setup(profile.accounts, profile.initial_balance)
    ledger = deployment.ledger
    injector = deployment.fault_injector()
    # Fault targets are protocol replicas; aggregate cluster leaves
    # (present when a scaled profile attached them) are not in
    # deployment.nodes, so node_ids is already the boundary set.
    node_ids = [node.node_id for node in deployment.nodes]
    tracer = deployment.network.tracer

    monitor = InvariantMonitor(
        ledger.audit, tracer=tracer, interval_s=profile.audit_interval_s
    )
    start = ledger.now()
    horizon = start + profile.duration_s + profile.settle_s
    monitor.attach(deployment.simulator, until=horizon)

    op_log: List[str] = []
    applied = dropped = 0
    for op in schedule.ops:
        target = start + op.time_s
        if target > ledger.now():
            ledger.advance(target - ledger.now())
        outcome = _apply_op(op, ledger, injector, node_ids)
        op_log.append(f"{op.kind}@{op.time_s:.6f}={outcome}")
        if outcome == "dropped":
            dropped += 1
        else:
            applied += 1
    ledger.advance(max(0.0, start + profile.duration_s - ledger.now())
                   + profile.settle_s)
    monitor.detach()
    # Quiescent final check: every invariant, including eventual ones.
    monitor.check_now(strict=True)
    backlog = intake_backlog(deployment.nodes)

    digest = hashlib.sha256()
    for line in op_log:
        digest.update(line.encode() + b"\n")
    digest.update(ledger.state_digest().encode() + b"\n")
    digest.update(tracer.fingerprint().encode() + b"\n")
    digest.update(f"now={ledger.now():.6f}".encode())

    return FuzzRunResult(
        paradigm=paradigm,
        seed=schedule.seed,
        profile=profile.name,
        ops_applied=applied,
        ops_dropped=dropped,
        fingerprint=digest.hexdigest(),
        violation=monitor.violation,
        audits_run=monitor.audits_run,
        started_at_s=start,
        duration_s=ledger.now() - start,
        intake_backlog=backlog,
    )


def run_seed(
    seed: int,
    profile: FuzzProfile,
    paradigms: Sequence[str] = PARADIGMS,
) -> FuzzOutcome:
    """Generate the seed's schedule and replay it on every paradigm."""
    schedule = generate_schedule(seed, profile)
    outcome = FuzzOutcome(seed=seed)
    for paradigm in paradigms:
        outcome.results.append(run_schedule(schedule, paradigm))
    return outcome


def run_campaign(
    seeds: Sequence[int],
    profile: FuzzProfile,
    paradigms: Sequence[str] = PARADIGMS,
    *,
    shrink: bool = False,
    determinism_check: bool = False,
    artifact_dir: Optional[str] = None,
    progress: Optional[object] = None,
) -> List[FuzzOutcome]:
    """Sweep ``seeds`` across ``paradigms``.

    With ``determinism_check``, every seed is replayed twice and the
    fingerprints must match (the replay oracle).  With ``shrink``,
    failing schedules are minimized before the artifact is written.
    ``progress`` is an optional ``print``-like callable.
    """
    from repro.check.shrink import shrink_schedule

    say = progress if callable(progress) else (lambda *_: None)
    outcomes: List[FuzzOutcome] = []
    for seed in seeds:
        outcome = run_seed(seed, profile, paradigms)
        if determinism_check:
            rerun = run_seed(seed, profile, paradigms)
            for first, second in zip(outcome.results, rerun.results):
                if first.fingerprint != second.fingerprint:
                    raise AssertionError(
                        f"replay diverged: seed={seed} "
                        f"paradigm={first.paradigm} "
                        f"{first.fingerprint[:12]} != {second.fingerprint[:12]}"
                    )
        outcomes.append(outcome)
        for result in outcome.results:
            status = "ok" if result.ok else "VIOLATION"
            say(f"seed={seed} {result.paradigm}: {status} "
                f"(ops={result.ops_applied}, audits={result.audits_run}, "
                f"fp={result.fingerprint[:12]})")
            if result.ok:
                continue
            artifact: Dict[str, object] = {
                "seed": seed,
                "profile": profile.name,
                "paradigm": result.paradigm,
                "result": result.to_dict(),
                "schedule": generate_schedule(seed, profile).to_dict(),
            }
            if shrink:
                shrunk = shrink_schedule(
                    generate_schedule(seed, profile), result.paradigm
                )
                if shrunk is not None:
                    artifact["minimized"] = shrunk.to_dict()
                    say(f"  shrunk: {shrunk.original_ops} ops -> "
                        f"{len(shrunk.schedule.ops)} "
                        f"({shrunk.runs_used} replays)")
            if artifact_dir is not None:
                os.makedirs(artifact_dir, exist_ok=True)
                path = os.path.join(
                    artifact_dir,
                    f"fuzz-{profile.name}-{result.paradigm}-seed{seed}.json",
                )
                with open(path, "w") as handle:
                    json.dump(artifact, handle, indent=2, sort_keys=True,
                              default=str)
                say(f"  artifact: {path}")
    return outcomes
