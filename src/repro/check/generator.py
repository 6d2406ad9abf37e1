"""Seeded property-based schedule generation.

A *schedule* is a time-ordered list of :class:`ScheduleOp` — payments,
double-spend conflicts, node crashes/restarts, partitions and a
deliberate state corruption — everything the fuzzer replays through the
unified :class:`~repro.core.ledger.Ledger` interface.  Schedules are a
pure function of ``(seed, profile)``: payments come from a
:class:`~repro.workloads.generators.PaymentWorkload` driven by a forked
stream, churn cycles from :func:`repro.faults.sample_churn_times`, so
the same seed always produces the same adversarial timeline (the SoK's
randomized conflict orderings, reproducibly).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from repro.common.rng import exponential, fork_rng, make_rng
from repro.faults import sample_churn_times
from repro.workloads.generators import PaymentEvent, PaymentWorkload

# Operation kinds a schedule may contain.
OP_PAYMENT = "payment"
OP_DOUBLE_SPEND = "double_spend"
OP_CRASH = "crash"
OP_RESTART = "restart"
OP_PARTITION = "partition"
OP_HEAL = "heal"
OP_CORRUPT = "corrupt"
OP_TIP_SPAM = "tip_spam"

#: Deterministic tiebreak for ops landing at the same instant: faults
#: fire before traffic, heal/corrupt after.
_KIND_ORDER = {
    OP_CRASH: 0,
    OP_RESTART: 1,
    OP_PARTITION: 2,
    OP_PAYMENT: 3,
    OP_DOUBLE_SPEND: 4,
    OP_HEAL: 5,
    OP_CORRUPT: 6,
    OP_TIP_SPAM: 7,
}


@dataclass(frozen=True)
class ScheduleOp:
    """One fuzzer action, serializable for failing-seed artifacts."""

    time_s: float
    kind: str
    sender: int = 0
    recipient: int = 0
    amount: int = 0
    #: target node index for crash/restart ops
    node: int = -1
    #: conflicting-entry fanout for tip-spam ops (0 = n/a)
    count: int = 0

    def sort_key(self) -> tuple:
        return (self.time_s, _KIND_ORDER.get(self.kind, 9), self.sender,
                self.recipient, self.node, self.amount, self.count)

    def to_payment(self) -> PaymentEvent:
        return PaymentEvent(
            time_s=self.time_s,
            sender_index=self.sender,
            recipient_index=self.recipient,
            amount=self.amount,
        )

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {"t": round(self.time_s, 6), "kind": self.kind}
        if self.kind in (OP_PAYMENT, OP_DOUBLE_SPEND):
            record.update(sender=self.sender, recipient=self.recipient,
                          amount=self.amount)
        elif self.kind == OP_TIP_SPAM:
            record.update(sender=self.sender, recipient=self.recipient,
                          amount=self.amount, count=self.count)
        elif self.kind in (OP_CRASH, OP_RESTART):
            record["node"] = self.node
        elif self.kind == OP_CORRUPT:
            record["amount"] = self.amount
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "ScheduleOp":
        return cls(
            time_s=float(record["t"]),
            kind=str(record["kind"]),
            sender=int(record.get("sender", 0)),
            recipient=int(record.get("recipient", 0)),
            amount=int(record.get("amount", 0)),
            node=int(record.get("node", -1)),
            count=int(record.get("count", 0)),
        )


@dataclass(frozen=True)
class FuzzProfile:
    """Knobs for one family of generated scenarios."""

    name: str = "baseline"
    #: workload accounts funded at setup
    accounts: int = 4
    initial_balance: int = 1_000_000
    #: payment horizon (sim seconds); faults stay inside it
    duration_s: float = 60.0
    #: quiescence window after the last op before the final audit
    settle_s: float = 45.0
    rate_tps: float = 0.4
    zipf_alpha: float = 0.6
    min_amount: int = 1
    max_amount: int = 500
    #: Poisson rate of double-spend conflict injections (0 = none)
    double_spend_rate_tps: float = 0.0
    #: churn: first ``churn_nodes`` node indices cycle crash/restart
    churn_nodes: int = 0
    churn_mtbf_s: float = 40.0
    churn_downtime_s: float = 8.0
    #: timed half/half partition (None = no partition)
    partition_at_s: Optional[float] = None
    partition_heal_s: float = 15.0
    #: deliberate supply corruption (the seeded-violation oracle)
    corrupt_at_s: Optional[float] = None
    corrupt_amount: int = 0
    #: in-loop audit cadence for the InvariantMonitor
    audit_interval_s: float = 5.0
    #: deployment shape
    node_count: int = 4
    block_interval_s: float = 15.0
    confirmation_depth: int = 2
    #: live pruning cadence on every replica (None = never prune mid-run)
    prune_interval_s: Optional[float] = None
    prune_keep_depth: int = 64
    #: blockchain mempool admission cap (None = unbounded)
    mempool_max_count: Optional[int] = None
    #: Byzantine adversary mix: the roster's first ``byzantine_nodes``
    #: replicas run ``byzantine_behavior`` (see repro.faults)
    byzantine_nodes: int = 0
    byzantine_behavior: str = "equivocate"
    #: BFT quorum override (``>= n/3`` seeds the classical safety break)
    quorum_f_override: Optional[int] = None
    view_timeout_s: float = 4.0
    #: Poisson rate of conflicting-tip spam bursts (0 = none)
    tip_spam_rate_tps: float = 0.0
    tip_spam_fanout: int = 3
    #: total population behind the message plane (None = just the
    #: node_count boundary; an int scales via TopologyScale)
    topology_scale: Optional[int] = None

    def describe(self) -> str:
        parts = [f"{self.accounts} accounts", f"{self.rate_tps} tps",
                 f"{self.duration_s:.0f}s"]
        if self.double_spend_rate_tps:
            parts.append(f"conflicts@{self.double_spend_rate_tps}/s")
        if self.churn_nodes:
            parts.append(f"churn x{self.churn_nodes}")
        if self.partition_at_s is not None:
            parts.append("partition")
        if self.corrupt_at_s is not None:
            parts.append("seeded corruption")
        if self.prune_interval_s is not None:
            parts.append(f"prune@{self.prune_interval_s:g}s")
        if self.byzantine_nodes:
            parts.append(
                f"byzantine x{self.byzantine_nodes} ({self.byzantine_behavior})")
        if self.quorum_f_override is not None:
            parts.append(f"f={self.quorum_f_override}")
        if self.tip_spam_rate_tps:
            parts.append(f"tip-spam@{self.tip_spam_rate_tps}/s")
        if self.topology_scale is not None:
            parts.append(f"scale={self.topology_scale}")
        return ", ".join(parts)


#: Named scenario families the CLI and CI select by name.
PROFILES: Dict[str, FuzzProfile] = {
    "baseline": FuzzProfile(name="baseline"),
    "conflict": FuzzProfile(
        name="conflict", double_spend_rate_tps=0.08, rate_tps=0.3
    ),
    "churn": FuzzProfile(
        name="churn", churn_nodes=1, churn_mtbf_s=35.0, churn_downtime_s=6.0
    ),
    "adversarial": FuzzProfile(
        name="adversarial", double_spend_rate_tps=0.06, churn_nodes=1,
        partition_at_s=20.0, partition_heal_s=12.0, rate_tps=0.3,
    ),
    # The self-test profile: a deliberate mid-run corruption the in-loop
    # monitor must catch (and the shrinker must minimize to).
    "seeded-violation": FuzzProfile(
        name="seeded-violation", corrupt_at_s=30.0, corrupt_amount=12345,
    ),
    # Sustained service: heavier traffic against a capped mempool with
    # live pruning ticking on every replica — the invariants must hold
    # while the ledger is being truncated under load.
    "soak": FuzzProfile(
        name="soak", duration_s=120.0, settle_s=60.0, rate_tps=1.0,
        prune_interval_s=30.0, prune_keep_depth=8, mempool_max_count=256,
    ),
    # Byzantine adversaries under the fault tolerance each paradigm
    # claims: one equivocating replica out of four (f < n/3 for BFT),
    # plus conflicting-tip spam bursts for the DAG's marked replica.
    # The invariants must hold — detection without divergence.
    "byzantine": FuzzProfile(
        name="byzantine", byzantine_nodes=1, rate_tps=0.3,
        tip_spam_rate_tps=0.05, settle_s=60.0,
    ),
    # The BFT self-test: two colluding equivocators with the quorum
    # threshold dropped to n - 2 (f >= n/3).  Conflicting commits MUST
    # form and the safety invariant MUST trip — run on --paradigm bft.
    "byzantine-violation": FuzzProfile(
        name="byzantine-violation", byzantine_nodes=2, quorum_f_override=2,
        rate_tps=0.3, settle_s=60.0,
    ),
}


@dataclass
class Schedule:
    """A generated scenario: the ops plus their provenance."""

    seed: int
    profile: FuzzProfile
    ops: List[ScheduleOp] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ops)

    def prefix(self, count: int) -> "Schedule":
        return Schedule(seed=self.seed, profile=self.profile,
                        ops=self.ops[:count])

    def without(self, index: int) -> "Schedule":
        return Schedule(seed=self.seed, profile=self.profile,
                        ops=self.ops[:index] + self.ops[index + 1:])

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "profile": self.profile.name,
            "ops": [op.to_dict() for op in self.ops],
        }


def generate_schedule(seed: int, profile: Optional[FuzzProfile] = None) -> Schedule:
    """Generate the deterministic schedule for ``(seed, profile)``.

    Each op family draws from its own labelled fork of the master
    stream, so e.g. enabling churn does not perturb payment times — the
    same decomposition the simulator itself uses (``common.rng``).
    """
    profile = profile or PROFILES["baseline"]
    master = make_rng(seed)
    ops: List[ScheduleOp] = []

    payments = PaymentWorkload.from_rng(
        fork_rng(master, "fuzz:payments"),
        accounts=profile.accounts,
        rate_tps=profile.rate_tps,
        zipf_alpha=profile.zipf_alpha,
        min_amount=profile.min_amount,
        max_amount=profile.max_amount,
    )
    for event in payments.generate(profile.duration_s):
        ops.append(ScheduleOp(
            time_s=event.time_s, kind=OP_PAYMENT,
            sender=event.sender_index, recipient=event.recipient_index,
            amount=event.amount,
        ))

    if profile.double_spend_rate_tps > 0:
        conflict_rng = fork_rng(master, "fuzz:conflicts")
        t = 0.0
        while True:
            t += exponential(conflict_rng, profile.double_spend_rate_tps)
            if t >= profile.duration_s:
                break
            sender = conflict_rng.randrange(profile.accounts)
            recipient = (sender + 1 + conflict_rng.randrange(
                profile.accounts - 1)) % profile.accounts
            ops.append(ScheduleOp(
                time_s=t, kind=OP_DOUBLE_SPEND, sender=sender,
                recipient=recipient,
                amount=conflict_rng.randint(profile.min_amount,
                                            profile.max_amount),
            ))

    if profile.tip_spam_rate_tps > 0:
        spam_rng = fork_rng(master, "fuzz:byz:tip-spam")
        t = 0.0
        while True:
            t += exponential(spam_rng, profile.tip_spam_rate_tps)
            if t >= profile.duration_s:
                break
            sender = spam_rng.randrange(profile.accounts)
            recipient = (sender + 1 + spam_rng.randrange(
                profile.accounts - 1)) % profile.accounts
            ops.append(ScheduleOp(
                time_s=t, kind=OP_TIP_SPAM, sender=sender,
                recipient=recipient,
                amount=spam_rng.randint(profile.min_amount,
                                        profile.max_amount),
                count=profile.tip_spam_fanout,
            ))

    for node_index in range(profile.churn_nodes):
        churn_rng = fork_rng(master, f"fuzz:churn:{node_index}")
        for crash_time, restart_time in sample_churn_times(
            churn_rng, profile.churn_mtbf_s, profile.churn_downtime_s,
            start_s=0.0, until_s=profile.duration_s,
        ):
            ops.append(ScheduleOp(time_s=crash_time, kind=OP_CRASH,
                                  node=node_index))
            ops.append(ScheduleOp(time_s=restart_time, kind=OP_RESTART,
                                  node=node_index))

    if profile.partition_at_s is not None:
        ops.append(ScheduleOp(time_s=profile.partition_at_s,
                              kind=OP_PARTITION))
        ops.append(ScheduleOp(
            time_s=profile.partition_at_s + profile.partition_heal_s,
            kind=OP_HEAL,
        ))

    if profile.corrupt_at_s is not None:
        ops.append(ScheduleOp(time_s=profile.corrupt_at_s, kind=OP_CORRUPT,
                              amount=profile.corrupt_amount))

    ops.sort(key=ScheduleOp.sort_key)
    return Schedule(seed=seed, profile=profile, ops=ops)


def profile_named(name: str, **overrides: Any) -> FuzzProfile:
    """Look up a named profile, optionally overriding fields."""
    try:
        profile = PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown fuzz profile {name!r} "
            f"(choose from {', '.join(sorted(PROFILES))})"
        ) from None
    return replace(profile, **overrides) if overrides else profile
