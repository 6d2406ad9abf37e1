"""Event queue: the heart of the discrete-event simulator.

Optimized for throughput: the heap stores plain ``(time, sequence,
event)`` tuples so ordering is resolved by C-level tuple comparison
(never by the payload object), :class:`Event` is a ``__slots__`` class
(no per-instance dict, no dataclass comparison machinery), and the queue
keeps an O(1) live-event counter so sizing the queue never rescans the
heap.  Cancellation stays lazy — cancelled entries are skipped when
:meth:`repro.sim.simulator.Simulator.run` pops them — which keeps
:meth:`Event.cancel` O(1) too.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, List, Tuple

Action = Callable[[], None]


class Event:
    """A scheduled callback handle.

    Ordering lives in the heap entry (``(time, sequence)`` prefix), not
    on the object: two events at the same instant fire in scheduling
    order, which keeps runs deterministic.  Events are built by
    :meth:`EventQueue.push` and the simulator's ``schedule*`` methods,
    never by calling the class.  ``payload`` is ``None`` for an ordinary
    event; otherwise the run loop calls ``action(payload)``.
    """

    __slots__ = ("time", "sequence", "action", "cancelled", "label", "_queue",
                 "payload")

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
    """Min-heap of events with lazy cancellation and O(1) live sizing.

    :meth:`repro.sim.simulator.Simulator.run` is the one consumer: it
    pops the heap inline and adds what it popped to :attr:`popped`.
    """

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
             payload=None, _heappush: Callable = heappush,
             _new: Callable = Event.__new__, _Event: type = Event) -> Event:
        # Default-arg bindings keep the hottest lookups local, and the
        # Event is built with __new__ + attribute stores so a push costs
        # no extra Python call frame.
        sequence = self._sequence
        self._sequence = sequence + 1
        event = _new(_Event)
        event.time = time
        event.sequence = sequence
        event.action = action
        event.cancelled = False
        event.label = label
        event._queue = self
        event.payload = payload
        _heappush(self._heap, (time, sequence, event))
        return event

    def stats(self) -> dict:
        """Lifetime counters — how much scheduling a run generated."""
        return {"pushed": self._sequence, "popped": self.popped,
                "pending": len(self)}
