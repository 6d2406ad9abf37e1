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

The tracer is on by default and cheap enough to stay on: recording
appends one plain tuple to a bounded ring and bumps one per-link list
slot.  :class:`TraceEvent` objects, per-node counters, dicts and JSON
are built from those only when read (:meth:`Tracer.events`,
:meth:`Tracer.dump_jsonl`, ``python -m repro sweep -e A7 --param
capture_trace=1 --trace-dir DIR``).
Old records fall off the ring; counters are cumulative and never lose
information.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import islice
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


#: Names of the positional detail values the ``record_*`` methods store
#: in a ring record's last slot, per event kind (``emit`` and
#: ``record_fork`` store their keyword dict there instead).
_DETAIL_FIELDS = {
    SCHEDULE: ("attempt",),
    RETRANSMIT: ("attempt", "delay"),
    GIVE_UP: ("attempts",),
    INTAKE_PARK: ("missing", "evicted"),
    INTAKE_REVIVE: ("count",),
    REPUBLISH: ("count",),
}

#: Per-link counter slots, and the order ``fingerprint`` hashes them in.
_SCHEDULED, _DELIVERED, _DROPPED = 0, 1, 2
_COUNTER_NAMES = ("scheduled", "delivered", "dropped")
_BY_NAME = sorted(zip(_COUNTER_NAMES, (_SCHEDULED, _DELIVERED, _DROPPED)))
#: Global totals ``fingerprint`` hashes ahead of the tables, in order.
_FINGERPRINTED = ("emitted", "scheduled", "delivered", "dropped",
                  "retransmits", "gave_up", "forks", "intake_parked",
                  "intake_revived", "intake_evicted", "republished")


@dataclass(frozen=True)
class TraceEvent:
    """One structured record read back from the trace ring."""

    time: float
    kind: str
    src: Optional[str] = None
    dst: Optional[str] = None
    msg_kind: Optional[str] = None
    reason: Optional[str] = None
    detail: Optional[Dict[str, Any]] = None

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


def _event(record: tuple) -> TraceEvent:
    """The :class:`TraceEvent` a ring record stands for."""
    time, kind, src, dst, msg_kind, reason, detail = record
    if detail is not None and type(detail) is not dict:
        names = _DETAIL_FIELDS[kind]
        detail = dict(zip(names, detail if len(names) > 1 else (detail,)))
        if kind == INTAKE_PARK:
            detail["missing"] = str(detail["missing"])
    return TraceEvent(time, kind, src, dst, msg_kind, reason, detail)


def _link_total(slot: int) -> property:
    """A global counter, read as the sum of one slot over every link."""
    return property(
        lambda self: sum(slots[slot] for slots in self._per_link.values()))


class Tracer:
    """Ring of event tuples with cumulative per-link counters.

    The ring holds the most recent ``capacity`` records as plain tuples
    ``(time, kind, src, dst, msg_kind, reason, detail)``; the counters
    are monotone and survive ring eviction, so accounting invariants can
    be checked on arbitrarily long runs.  ``_per_link`` maps ``(src,
    dst)`` to ``[scheduled, delivered, dropped]``, the only place those
    are counted: global and per-node totals are sums over it, taken when
    read.  Call sites skip ``record_*`` when ``enabled`` is False.
    """

    enabled = True
    scheduled = _link_total(_SCHEDULED)
    delivered = _link_total(_DELIVERED)
    dropped = _link_total(_DROPPED)

    def __init__(self, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._events: deque = deque(maxlen=capacity)
        self._append = self._events.append  # bound once for the hot path
        self.emitted = 0
        self.retransmits = 0
        self.gave_up = 0
        self.forks = 0
        self.intake_parked = 0
        self.intake_revived = 0
        self.intake_evicted = 0
        self.republished = 0
        self.drop_reasons: Dict[str, int] = {}
        self._per_link: Dict[Tuple[str, str], List[int]] = defaultdict(
            lambda: [0, 0, 0])

    # --------------------------------------------------------------- record

    def emit(self, time: float, kind: str, src: Optional[str] = None,
             dst: Optional[str] = None, msg_kind: Optional[str] = None,
             reason: Optional[str] = None, **detail: Any) -> None:
        """One record of any ``kind``; keyword extras become its detail."""
        self.emitted += 1
        self._append((time, kind, src, dst, msg_kind, reason, detail or None))

    def record_schedule(self, time: float, src: str, dst: str,
                        msg_kind: str, attempt: int = 1) -> None:
        """One transmission attempt handed to a link."""
        self.emitted += 1
        self._per_link[src, dst][_SCHEDULED] += 1
        self._append((time, SCHEDULE, src, dst, msg_kind, None, attempt))

    def record_deliver(self, time: float, src: str, dst: str,
                       msg_kind: str) -> None:
        self.emitted += 1
        self._per_link[src, dst][_DELIVERED] += 1
        self._append((time, DELIVER, src, dst, msg_kind, None, None))

    def record_drop(self, time: float, src: str, dst: str,
                    msg_kind: str, reason: str) -> None:
        self.emitted += 1
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1
        self._per_link[src, dst][_DROPPED] += 1
        self._append((time, DROP, src, dst, msg_kind, reason, None))

    def record_retransmit(self, time: float, src: str, dst: str,
                          msg_kind: str, attempt: int, delay: float) -> None:
        self.retransmits += 1
        self.emitted += 1
        self._append(
            (time, RETRANSMIT, src, dst, msg_kind, None, (attempt, delay)))

    def record_give_up(self, time: float, src: str, dst: str,
                       msg_kind: str, attempts: int) -> None:
        self.gave_up += 1
        self.emitted += 1
        self._append((time, GIVE_UP, src, dst, msg_kind, None, attempts))

    def record_fork(self, time: float, node_id: str, **detail: Any) -> None:
        """Ledger-level divergence observed at ``node_id`` (a reorg, a
        conflicting head) — the Section IV events faults provoke."""
        self.forks += 1
        self.emitted += 1
        self._append((time, FORK, node_id, None, None, None, detail or None))

    def record_intake_park(self, time: float, node_id: str,
                           missing: Any, evicted: int = 0) -> None:
        """An artifact parked in ``node_id``'s intake layer waiting on
        ``missing`` (stringified when read); ``evicted`` counts entries
        the bound pushed out."""
        self.intake_parked += 1
        self.intake_evicted += evicted
        self.emitted += 1
        self._append(
            (time, INTAKE_PARK, None, node_id, None, None, (missing, evicted)))

    def record_intake_revive(self, time: float, node_id: str,
                             count: int) -> None:
        """``count`` parked artifacts re-attempted after heal/restart."""
        self.intake_revived += count
        self.emitted += 1
        self._append((time, INTAKE_REVIVE, None, node_id, None, None, count))

    def record_republish(self, time: float, node_id: str,
                         count: int) -> None:
        """``count`` offline-created artifacts re-gossiped on reconnect."""
        self.republished += count
        self.emitted += 1
        self._append((time, REPUBLISH, node_id, None, None, None, count))

    # ---------------------------------------------------------------- query

    @property
    def in_flight(self) -> int:
        """Attempts scheduled but not yet resolved (0 after quiescence)."""
        return self.scheduled - self.delivered - self.dropped

    def events(self, kind: Optional[str] = None,
               last: Optional[int] = None) -> List[TraceEvent]:
        """Buffered events, oldest first: all of them, those of one
        ``kind``, and/or only the ``last`` n of that selection (a tail
        read touches n ring records, not the whole ring)."""
        records: Iterable[tuple] = self._events
        if kind is not None:
            records = [r for r in records if r[1] == kind]
        if last is not None:
            records = list(islice(reversed(records), last))[::-1]
        return [_event(r) for r in records]

    def _node_table(self) -> Dict[str, List[int]]:
        """Per-node ``[scheduled, delivered, dropped]`` summed from the
        per-link table.  A node appears once it has sent an attempt or
        had one resolved at it."""
        nodes: Dict[str, List[int]] = {}
        for (src, dst), (sent, delivered, dropped) in self._per_link.items():
            if sent:
                nodes.setdefault(src, [0, 0, 0])[_SCHEDULED] += sent
            if delivered or dropped:
                slots = nodes.setdefault(dst, [0, 0, 0])
                slots[_DELIVERED] += delivered
                slots[_DROPPED] += dropped
        return nodes

    def node_counters(self, node_id: str) -> Dict[str, int]:
        return dict(zip(_COUNTER_NAMES,
                        self._node_table().get(node_id, (0, 0, 0))))

    def link_counters(self, src: str, dst: str) -> Dict[str, int]:
        return dict(zip(_COUNTER_NAMES,
                        self._per_link.get((src, dst), (0, 0, 0))))

    def counters(self) -> Dict[str, float]:
        """Flat ``trace.*`` counter dict."""
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
        parts = [f"{name}={getattr(self, name)}" for name in _FINGERPRINTED]
        for reason, count in sorted(self.drop_reasons.items()):
            parts.append(f"drop:{reason}={count}")
        for node_id, slots in sorted(self._node_table().items()):
            for name, slot in _BY_NAME:
                parts.append(f"node:{node_id}:{name}={slots[slot]}")
        for (src, dst), slots in sorted(self._per_link.items()):
            for name, slot in _BY_NAME:
                parts.append(f"link:{src}->{dst}:{name}={slots[slot]}")
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
        if isinstance(target, str):
            with open(target, "w") as handle:
                return self.dump_jsonl(handle, kinds)
        wanted = set(kinds) if kinds is not None else None
        written = 0
        for record in self._events:
            if wanted is None or record[1] in wanted:
                target.write(_event(record).to_json() + "\n")
                written += 1
        return written


class NullTracer(Tracer):
    """A tracer that records nothing — the untraced measuring stick.

    ``gossip_untraced`` (``repro perf``) passes this to
    :class:`repro.net.network.Network` to measure what the trace costs:
    with ``enabled`` cleared the gossip hot path makes no ``record_*``
    call, and ``emit`` is a no-op.  The accounting invariant ``scheduled
    == delivered + dropped`` is not checkable on a null trace — benches
    that assert it (A7) must use a real :class:`Tracer`.
    """

    enabled = False

    def emit(self, time, kind, src=None, dst=None, msg_kind=None,
             reason=None, **detail) -> None:
        return None
