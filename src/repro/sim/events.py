"""Event queue: the heart of the discrete-event simulator.

Optimized for throughput: the heap stores plain ``(time, sequence,
event)`` tuples so ordering is resolved by C-level tuple comparison
(never by the payload object), :class:`Event` is a ``__slots__`` class
(no per-instance dict, no dataclass comparison machinery), and the queue
keeps an O(1) live-event counter so sizing the queue never rescans the
heap.  Cancellation stays lazy — cancelled entries are skipped at pop
time — which keeps :meth:`Event.cancel` O(1) too.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

Action = Callable[[], None]


class Event:
    """A scheduled callback handle.

    Ordering lives in the heap entry (``(time, sequence)`` prefix), not
    on the object: two events at the same instant fire in scheduling
    order, which keeps runs deterministic.
    """

    __slots__ = ("time", "sequence", "action", "cancelled", "label", "_queue",
                 "coalesce_key", "payload")

    def __init__(self, time: float, sequence: int, action: Action,
                 label: str = "",
                 queue: Optional["EventQueue"] = None) -> None:
        self.time = time
        self.sequence = sequence
        self.action = action
        self.cancelled = False
        self.label = label
        self._queue = queue
        # Batchable events (Simulator.schedule_batchable): consecutive
        # same-(time, coalesce_key) events are drained as one dispatch at
        # pop time.  None for ordinary events.
        self.coalesce_key = None
        self.payload = None

    def cancel(self) -> None:
        """Mark the event so the loop skips it (O(1) lazy deletion)."""
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            # Count it once, while still queued: the live size is derived
            # as pushed - popped - cancelled, so only cancellation (rare)
            # pays for sizing — pushes and pops keep no live counter.
            queue._cancelled += 1
            self._queue = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else f"t={self.time}"
        return f"Event({self.label or self.sequence}, {state})"


class EventQueue:
    """Min-heap of events with lazy cancellation and O(1) live sizing."""

    __slots__ = ("_heap", "_sequence", "_cancelled", "popped")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._sequence = 0
        self._cancelled = 0
        self.popped = 0

    def __len__(self) -> int:
        """Live (non-cancelled, not yet popped) events — O(1), derived
        from the push/pop/cancel counters."""
        return self._sequence - self.popped - self._cancelled

    @property
    def pushed(self) -> int:
        """Total events ever scheduled (the sequence counter — every push
        consumes exactly one sequence number)."""
        return self._sequence

    def push(self, time: float, action: Action, label: str = "",
             _heappush: Callable = heappush, _new: Callable = Event.__new__,
             _Event: type = Event) -> Event:
        # Default-arg bindings keep the hottest lookups local, and the
        # Event is built with __new__ + attribute stores so a push costs
        # no extra Python call frame for __init__.
        sequence = self._sequence
        self._sequence = sequence + 1
        event = _new(_Event)
        event.time = time
        event.sequence = sequence
        event.action = action
        event.cancelled = False
        event.label = label
        event._queue = self
        event.coalesce_key = None
        event.payload = None
        _heappush(self._heap, (time, sequence, event))
        return event

    def pop(self) -> Optional[Event]:
        """Next live event, or ``None`` when the queue is drained."""
        heap = self._heap
        while heap:
            event = heappop(heap)[2]
            if not event.cancelled:
                event._queue = None
                self.popped += 1
                return event
        return None

    def stats(self) -> dict:
        """Lifetime counters — how much scheduling a run generated."""
        return {"pushed": self._sequence, "popped": self.popped,
                "pending": len(self)}
