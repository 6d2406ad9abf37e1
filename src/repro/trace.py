"""Structured tracing for the simulated network fabric.

Every transmission attempt the :class:`~repro.net.network.Network` hands
to a link is recorded as a ``schedule`` event and later resolved as
exactly one ``deliver`` or ``drop`` event, so a completed run satisfies

    scheduled == delivered + dropped

which is the accounting invariant the fault-tolerance bench (A7)
asserts.  Fault injectors additionally emit ``crash``/``restart``/
``partition``/``heal``/``degrade``/``restore`` events, ledger layers may
emit ``fork`` events, and the gossip retransmit path emits
``retransmit``/``give_up`` markers.

Events live in a bounded ring buffer (old records fall off; counters are
cumulative and never lose information) and can be dumped as JSONL for
offline analysis via :meth:`Tracer.dump_jsonl` or ``python -m repro
faults --trace-out``.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from typing import IO, Any, Dict, Iterable, List, Optional, Tuple, Union

# Event kinds emitted by the network fabric itself.
SCHEDULE = "schedule"
DELIVER = "deliver"
DROP = "drop"
RETRANSMIT = "retransmit"
GIVE_UP = "give_up"
# Event kinds emitted by the fault-injection layer.
CRASH = "crash"
RESTART = "restart"
PARTITION = "partition"
HEAL = "heal"
DEGRADE = "degrade"
RESTORE = "restore"
BYZANTINE = "byzantine"
# Event kind for ledger-level divergence (reorgs, conflicting heads).
FORK = "fork"
# Event kinds emitted by the protocol stack (repro.protocol): intake
# parking/revival and transport republish-on-reconnect.
INTAKE_PARK = "intake_park"
INTAKE_REVIVE = "intake_revive"
REPUBLISH = "republish"

#: Drop reasons used by the network fabric.
REASON_LOSS = "loss"
REASON_PARTITION = "partition"
REASON_OFFLINE = "offline"


@dataclass(frozen=True)
class TraceEvent:
    """One structured record in the trace ring buffer."""

    time: float
    kind: str
    src: Optional[str] = None
    dst: Optional[str] = None
    msg_kind: Optional[str] = None
    reason: Optional[str] = None
    detail: Optional[Dict[str, Any]] = field(default=None)

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {"t": self.time, "kind": self.kind}
        for name in ("src", "dst", "msg_kind", "reason"):
            value = getattr(self, name)
            if value is not None:
                record[name] = value
        if self.detail:
            record.update(self.detail)
        return record

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, default=str)


def _blank_counters() -> Dict[str, int]:
    return {"scheduled": 0, "delivered": 0, "dropped": 0}


class Tracer:
    """Ring-buffered event log with cumulative per-node/per-link counters.

    The buffer holds the most recent ``capacity`` events; the counters
    are monotone and survive ring eviction, so accounting invariants can
    be checked on arbitrarily long runs.

    ``enabled`` is the pay-for-use contract with the network fabric: hot
    paths consult it before building a trace record, so swapping in a
    :class:`NullTracer` removes record construction from untraced sweeps
    entirely (see ``docs/performance.md``).
    """

    #: Hot paths skip record calls altogether when this is False.
    enabled = True

    def __init__(self, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self.emitted = 0
        self.scheduled = 0
        self.delivered = 0
        self.dropped = 0
        self.retransmits = 0
        self.gave_up = 0
        self.forks = 0
        self.intake_parked = 0
        self.intake_revived = 0
        self.intake_evicted = 0
        self.republished = 0
        self.drop_reasons: Dict[str, int] = {}
        self._per_node: Dict[str, Dict[str, int]] = {}
        self._per_link: Dict[Tuple[str, str], Dict[str, int]] = {}

    # ----------------------------------------------------------------- emit

    def emit(
        self,
        time: float,
        kind: str,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        msg_kind: Optional[str] = None,
        reason: Optional[str] = None,
        **detail: Any,
    ) -> TraceEvent:
        event = TraceEvent(
            time=time, kind=kind, src=src, dst=dst,
            msg_kind=msg_kind, reason=reason, detail=detail or None,
        )
        self._events.append(event)
        self.emitted += 1
        return event

    def _node(self, node_id: str) -> Dict[str, int]:
        return self._per_node.setdefault(node_id, _blank_counters())

    def _link(self, src: str, dst: str) -> Dict[str, int]:
        return self._per_link.setdefault((src, dst), _blank_counters())

    def record_schedule(self, time: float, src: str, dst: str,
                        msg_kind: str, attempt: int = 1) -> None:
        """One transmission attempt handed to a link."""
        self.scheduled += 1
        self._node(src)["scheduled"] += 1
        self._link(src, dst)["scheduled"] += 1
        self.emit(time, SCHEDULE, src=src, dst=dst, msg_kind=msg_kind,
                  attempt=attempt)

    def record_deliver(self, time: float, src: str, dst: str,
                       msg_kind: str) -> None:
        self.delivered += 1
        self._node(dst)["delivered"] += 1
        self._link(src, dst)["delivered"] += 1
        self.emit(time, DELIVER, src=src, dst=dst, msg_kind=msg_kind)

    def record_drop(self, time: float, src: str, dst: str,
                    msg_kind: str, reason: str) -> None:
        self.dropped += 1
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1
        self._node(dst)["dropped"] += 1
        self._link(src, dst)["dropped"] += 1
        self.emit(time, DROP, src=src, dst=dst, msg_kind=msg_kind,
                  reason=reason)

    def record_retransmit(self, time: float, src: str, dst: str,
                          msg_kind: str, attempt: int, delay: float) -> None:
        self.retransmits += 1
        self.emit(time, RETRANSMIT, src=src, dst=dst, msg_kind=msg_kind,
                  attempt=attempt, delay=delay)

    def record_give_up(self, time: float, src: str, dst: str,
                       msg_kind: str, attempts: int) -> None:
        self.gave_up += 1
        self.emit(time, GIVE_UP, src=src, dst=dst, msg_kind=msg_kind,
                  attempts=attempts)

    def record_fork(self, time: float, node_id: str, **detail: Any) -> None:
        """Ledger-level divergence observed at ``node_id`` (a reorg, a
        conflicting head) — the Section IV events faults provoke."""
        self.forks += 1
        self.emit(time, FORK, src=node_id, **detail)

    def record_intake_park(self, time: float, node_id: str,
                           missing: Any, evicted: int = 0) -> None:
        """An artifact parked in ``node_id``'s intake layer waiting on
        ``missing``; ``evicted`` counts entries the bound pushed out."""
        self.intake_parked += 1
        self.intake_evicted += evicted
        self.emit(time, INTAKE_PARK, dst=node_id, missing=str(missing),
                  evicted=evicted)

    def record_intake_revive(self, time: float, node_id: str,
                             count: int) -> None:
        """``count`` parked artifacts re-attempted after heal/restart."""
        self.intake_revived += count
        self.emit(time, INTAKE_REVIVE, dst=node_id, count=count)

    def record_republish(self, time: float, node_id: str,
                         count: int) -> None:
        """``count`` offline-created artifacts re-gossiped on reconnect."""
        self.republished += count
        self.emit(time, REPUBLISH, src=node_id, count=count)

    # ---------------------------------------------------------------- query

    @property
    def in_flight(self) -> int:
        """Attempts scheduled but not yet resolved (0 after quiescence)."""
        return self.scheduled - self.delivered - self.dropped

    def events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]

    def node_counters(self, node_id: str) -> Dict[str, int]:
        return dict(self._per_node.get(node_id, _blank_counters()))

    def link_counters(self, src: str, dst: str) -> Dict[str, int]:
        return dict(self._per_link.get((src, dst), _blank_counters()))

    def counters(self) -> Dict[str, float]:
        """Flat counter dict, suitable for ``MetricCollector.ingest_tracer``."""
        flat: Dict[str, float] = {
            "trace.scheduled": float(self.scheduled),
            "trace.delivered": float(self.delivered),
            "trace.dropped": float(self.dropped),
            "trace.retransmits": float(self.retransmits),
            "trace.give_ups": float(self.gave_up),
            "trace.forks": float(self.forks),
            "trace.in_flight": float(self.in_flight),
            "trace.intake_parked": float(self.intake_parked),
            "trace.intake_revived": float(self.intake_revived),
            "trace.intake_evicted": float(self.intake_evicted),
            "trace.republished": float(self.republished),
        }
        for reason, count in self.drop_reasons.items():
            flat[f"trace.dropped.{reason}"] = float(count)
        return flat

    def fingerprint(self) -> str:
        """Deterministic digest of the cumulative trace counters.

        Two runs of the same seeded scenario must produce the same
        fingerprint — the replay oracle `repro.check` asserts.  Only the
        monotone counters (global, per-node, per-link, drop reasons) are
        hashed, so the digest is independent of the ring buffer's
        capacity and of how many old records fell off it.
        """
        parts: List[str] = [
            f"emitted={self.emitted}",
            f"scheduled={self.scheduled}",
            f"delivered={self.delivered}",
            f"dropped={self.dropped}",
            f"retransmits={self.retransmits}",
            f"gave_up={self.gave_up}",
            f"forks={self.forks}",
            f"intake_parked={self.intake_parked}",
            f"intake_revived={self.intake_revived}",
            f"intake_evicted={self.intake_evicted}",
            f"republished={self.republished}",
        ]
        for reason, count in sorted(self.drop_reasons.items()):
            parts.append(f"drop:{reason}={count}")
        for node_id, counters in sorted(self._per_node.items()):
            for name, count in sorted(counters.items()):
                parts.append(f"node:{node_id}:{name}={count}")
        for (src, dst), counters in sorted(self._per_link.items()):
            for name, count in sorted(counters.items()):
                parts.append(f"link:{src}->{dst}:{name}={count}")
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()

    def summary(self) -> str:
        reasons = ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(self.drop_reasons.items())
        ) or "none"
        return (
            f"scheduled={self.scheduled} delivered={self.delivered} "
            f"dropped={self.dropped} ({reasons}) "
            f"retransmits={self.retransmits} in_flight={self.in_flight}"
        )

    # ----------------------------------------------------------------- dump

    def dump_jsonl(self, target: Union[str, IO[str]],
                   kinds: Optional[Iterable[str]] = None) -> int:
        """Write buffered events (optionally filtered) as JSONL.

        Returns the number of records written.  ``target`` may be a path
        or an open text file object.
        """
        wanted = set(kinds) if kinds is not None else None
        events = [
            e for e in self._events
            if wanted is None or e.kind in wanted
        ]
        if isinstance(target, str):
            with open(target, "w") as handle:
                return self.dump_jsonl(handle, kinds)
        for event in events:
            target.write(event.to_json() + "\n")
        return len(events)


#: Shared inert record returned by :meth:`NullTracer.emit` so callers that
#: keep the return value still receive a well-formed event.
_NULL_EVENT = TraceEvent(time=0.0, kind="null")


class NullTracer(Tracer):
    """A tracer that records nothing — the pay-for-use fast path.

    Untraced sweeps pass this to :class:`repro.net.network.Network` (or
    helpers like :func:`repro.dag.bootstrap.build_nano_testbed`) so the
    gossip hot path skips trace-record construction *and* counter upkeep
    entirely; the fabric's own ``messages_delivered``/``messages_lost``
    totals remain available.  The accounting invariant ``scheduled ==
    delivered + dropped`` is not checkable on a null trace — benches that
    assert it (A7) must use a real :class:`Tracer`.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(capacity=1)

    def emit(self, time, kind, src=None, dst=None, msg_kind=None,
             reason=None, **detail) -> TraceEvent:
        return _NULL_EVENT
