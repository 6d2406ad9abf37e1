"""The discrete-event simulator."""

from __future__ import annotations

import random
from typing import Callable, Optional

from heapq import heappop, heappush

from repro.common.rng import fork_rng, make_rng
from repro.sim.events import Action, Event, EventQueue


class PeriodicTask:
    """Handle for a :meth:`Simulator.schedule_periodic` loop.

    :meth:`cancel` stops the loop: the queued tick is cancelled (O(1)
    lazy deletion) and no further ticks are scheduled.  In-loop monitors
    use this to detach once they have seen what they were watching for.
    """

    __slots__ = ("_event", "cancelled")

    def __init__(self) -> None:
        self._event: Optional[Event] = None
        self.cancelled = False

    @property
    def active(self) -> bool:
        """True while another tick is queued (or currently firing)."""
        return not self.cancelled and self._event is not None

    def cancel(self) -> None:
        self.cancelled = True
        if self._event is not None:
            self._event.cancel()
            self._event = None


class Simulator:
    """Deterministic event loop with a simulated clock.

    >>> sim = Simulator(seed=1)
    >>> fired = []
    >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [5.0]
    """

    def __init__(self, seed: int = 0) -> None:
        self._queue = EventQueue()
        # Bound method cached once: schedule() is the hottest entry point.
        self._push = self._queue.push
        self._now = 0.0
        self._events_processed = 0
        self._halted = False
        self.rng = make_rng(seed)

    # ------------------------------------------------------------------ time

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def fork_rng(self, label: str) -> random.Random:
        """Independent random stream for one component (see common.rng)."""
        return fork_rng(self.rng, label)

    def halt(self) -> None:
        """Stop the current :meth:`run` after the executing event returns
        (used by fault scenarios that detect a terminal condition)."""
        self._halted = True

    def queue_stats(self) -> dict:
        """Scheduling counters from the underlying event queue."""
        return self._queue.stats()

    # -------------------------------------------------------------- schedule

    def schedule(self, delay: float, action: Action, label: str = "",
                 _heappush=heappush, _new=Event.__new__, _Event=Event) -> Event:
        """Run ``action`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        # EventQueue.push inlined (same package, see events.py): schedule
        # is the hottest entry point and the extra call frame is ~15% of
        # the per-event cost on the microbench.
        queue = self._queue
        time = self._now + delay
        sequence = queue._sequence
        queue._sequence = sequence + 1
        event = _new(_Event)
        event.time = time
        event.sequence = sequence
        event.action = action
        event.cancelled = False
        event.label = label
        event._queue = queue
        event.coalesce_key = None
        event.payload = None
        _heappush(queue._heap, (time, sequence, event))
        return event

    def schedule_batchable(self, delay: float, dispatch: Callable, payload,
                           key, label: str = "",
                           _heappush=heappush, _new=Event.__new__,
                           _Event=Event) -> Event:
        """Schedule a coalescible delivery: ``dispatch(payloads)``.

        Consecutive same-timestamp events sharing ``key`` (and the same
        ``dispatch`` callable) are drained from the heap as *one* batch
        at pop time, and ``dispatch`` receives the list of their payloads
        in scheduling order.  Pop-time coalescing is exactly
        order-preserving: the heap already yields true execution order,
        and anything scheduled *during* the batch carries a later
        sequence number, so it would have run after every batch member
        anyway.  Each member still counts as one processed event.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        queue = self._queue
        time = self._now + delay
        sequence = queue._sequence
        queue._sequence = sequence + 1
        event = _new(_Event)
        event.time = time
        event.sequence = sequence
        event.action = dispatch
        event.cancelled = False
        event.label = label
        event._queue = queue
        event.coalesce_key = key
        event.payload = payload
        _heappush(queue._heap, (time, sequence, event))
        return event

    def schedule_at(self, time: float, action: Action, label: str = "") -> Event:
        """Run ``action`` at absolute simulated ``time``."""
        if time < self._now:
            raise ValueError(f"cannot schedule at {time} < now {self._now}")
        return self._push(time, action, label)

    def schedule_periodic(
        self,
        interval: float,
        action: Callable[[], None],
        *,
        start_delay: Optional[float] = None,
        until: Optional[float] = None,
    ) -> PeriodicTask:
        """Fire ``action`` every ``interval`` seconds until ``until``.

        Returns a :class:`PeriodicTask`; cancelling it stops the loop
        (the action may cancel its own handle mid-tick to detach)."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        first = interval if start_delay is None else start_delay
        task = PeriodicTask()

        def tick() -> None:
            task._event = None
            action()
            # Clamp the final reschedule: a tick that would land past
            # ``until`` is never scheduled, so the queue drains at the
            # bound instead of carrying a dead event beyond it.
            if not task.cancelled and (
                until is None or self._now + interval <= until
            ):
                task._event = self.schedule(interval, tick, label="periodic")

        if until is None or self._now + first <= until:
            task._event = self.schedule(first, tick, label="periodic")
        return task

    # ------------------------------------------------------------------- run

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Process events until the queue empties, ``until`` is reached, or
        ``max_events`` have fired.  The clock ends at ``until`` when given,
        even if the queue drained earlier."""
        processed = 0
        popped = 0
        self._halted = False
        # Hot loop: the queue's peek + pop is inlined (same package, see
        # events.py) so each event costs one heap access and zero extra
        # Python calls; heap and queue are bound to locals once and the
        # pop counter is flushed back in one write at exit.
        queue = self._queue
        heap = queue._heap
        pop = heappop
        limit = max_events if max_events is not None else float("inf")
        horizon = until if until is not None else float("inf")
        try:
            while not self._halted and processed < limit:
                event = None
                while heap:
                    entry = heap[0]
                    candidate = entry[2]
                    if candidate.cancelled:
                        pop(heap)
                        continue
                    if entry[0] > horizon:
                        break
                    pop(heap)
                    candidate._queue = None
                    popped += 1
                    event = candidate
                    break
                if event is None:
                    # Queue drained (or next event past the horizon): the
                    # clock still ends at ``until`` when one was given.
                    if until is not None and until > self._now:
                        self._now = until
                    break
                self._now = entry[0]
                key = event.coalesce_key
                if key is None:
                    event.action()
                    processed += 1
                    continue
                # Coalesce: drain the run of same-(time, key) events at
                # the heap top into one dispatch (order-preserving — see
                # schedule_batchable).  Members share the popped event's
                # timestamp, which already passed the horizon check.
                time = entry[0]
                dispatch = event.action
                batch = [event.payload]
                while heap and processed + len(batch) < limit:
                    top = heap[0]
                    if top[0] != time:
                        break
                    nxt = top[2]
                    if nxt.cancelled:
                        pop(heap)
                        continue
                    if nxt.coalesce_key != key or nxt.action is not dispatch:
                        break
                    pop(heap)
                    nxt._queue = None
                    popped += 1
                    batch.append(nxt.payload)
                dispatch(batch)
                processed += len(batch)
        finally:
            queue.popped += popped
            self._events_processed += processed
