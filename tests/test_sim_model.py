"""Model-based test of the simulator's run loop.

A plain list of pending entries, scanned for the smallest
``(time, sequence)``, is the model: Hypothesis schedules one-shot,
absolute, payload-carrying and periodic events, cancels some, and runs
the loop with and without ``until`` / ``max_events``.  After each run
the events that fired, the arguments they received, the clock, the
processed count and the queue's counters must be the model's.  Delays
are multiples of 0.5 s so same-instant events are common and every
time is exact in binary floating point.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.sim.simulator import Simulator

HALVES = st.integers(0, 4).map(lambda k: k * 0.5)


class _Entry:
    """One queued event of the model."""

    __slots__ = ("ident", "time", "sequence", "payload", "task", "cancelled")

    def __init__(self, ident, time, sequence, payload=None, task=None):
        self.ident = ident
        self.time = time
        self.sequence = sequence
        self.payload = payload
        self.task = task
        self.cancelled = False


class _Task:
    """One periodic loop of the model."""

    __slots__ = ("ident", "interval", "until", "entry", "cancelled")

    def __init__(self, ident, interval, until):
        self.ident = ident
        self.interval = interval
        self.until = until
        self.entry = None
        self.cancelled = False


class SimulatorMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator(seed=0)
        self.fired = []
        self.dispatch = self._dispatch  # bound once, like the planes do
        self.handles = {}    # ident -> Event handle (one-shot events)
        self.tasks = {}      # ident -> PeriodicTask
        # The model.
        self.now = 0.0
        self.queue = []
        self.entries = {}
        self.model_tasks = {}
        self.pushed = 0
        self.popped = 0
        self.processed = 0
        self.next_ident = 0

    # ---------------------------------------------------------- recording

    def _recorder(self, ident):
        def action(*args):
            self.fired.append((ident, self.sim.now, args))
        return action

    def _dispatch(self, payload):
        self.fired.append((payload[0], self.sim.now, (payload,)))

    def _ident(self):
        self.next_ident += 1
        return self.next_ident

    def _push(self, ident, time, payload=None, task=None):
        entry = _Entry(ident, time, self.pushed, payload, task)
        self.pushed += 1
        self.queue.append(entry)
        return entry

    # ------------------------------------------------------------- rules

    @rule(delay=HALVES)
    def schedule(self, delay):
        ident = self._ident()
        self.handles[ident] = self.sim.schedule(delay, self._recorder(ident))
        self.entries[ident] = self._push(ident, self.now + delay)

    @rule(offset=HALVES)
    def schedule_at(self, offset):
        ident = self._ident()
        time = self.now + offset
        self.handles[ident] = self.sim.schedule_at(time, self._recorder(ident))
        self.entries[ident] = self._push(ident, time)

    @rule(delay=HALVES)
    def schedule_batchable(self, delay):
        ident = self._ident()
        payload = (ident, object())
        self.handles[ident] = self.sim.schedule_batchable(
            delay, self.dispatch, payload, ("key", ident % 2))
        self.entries[ident] = self._push(ident, self.now + delay, payload)

    @rule(interval=st.integers(1, 4).map(lambda k: k * 0.5),
          horizon=st.integers(0, 12).map(lambda k: k * 0.5))
    def schedule_periodic(self, interval, horizon):
        ident = self._ident()
        until = self.now + horizon
        self.tasks[ident] = self.sim.schedule_periodic(
            interval, self._recorder(ident), until=until)
        task = self.model_tasks[ident] = _Task(ident, interval, until)
        if self.now + interval <= until:
            task.entry = self._push(ident, self.now + interval, task=task)

    @precondition(lambda self: self.handles)
    @rule(data=st.data())
    def cancel(self, data):
        ident = data.draw(st.sampled_from(sorted(self.handles)))
        self.handles[ident].cancel()
        self.entries[ident].cancelled = True

    @precondition(lambda self: self.tasks)
    @rule(data=st.data())
    def cancel_periodic(self, data):
        ident = data.draw(st.sampled_from(sorted(self.tasks)))
        self.tasks[ident].cancel()
        task = self.model_tasks[ident]
        task.cancelled = True
        if task.entry is not None:
            task.entry.cancelled = True
            task.entry = None

    @rule(horizon=st.none() | st.integers(0, 8).map(lambda k: k * 0.5),
          max_events=st.none() | st.integers(0, 6))
    def run(self, horizon, max_events):
        until = None if horizon is None else self.now + horizon
        expected = self._model_run(until, max_events)
        del self.fired[:]
        self.sim.run(until=until, max_events=max_events)
        assert self.fired == expected
        times = [time for _, time, _ in self.fired]
        assert times == sorted(times)
        for ident, _, args in self.fired:
            entry = self.entries.get(ident)
            if entry is not None and entry.payload is not None:
                assert len(args) == 1 and args[0] is entry.payload
            else:
                assert args == ()

    def _model_run(self, until, max_events):
        """What ``run`` must do: fire the smallest live (time, sequence)
        until the queue empties, passes ``until`` or ``max_events`` fired;
        the clock ends at ``until`` unless the event budget stopped it."""
        fired = []
        limit = float("inf") if max_events is None else max_events
        processed = 0
        while processed < limit:
            live = [e for e in self.queue if not e.cancelled]
            entry = min(live, key=lambda e: (e.time, e.sequence), default=None)
            if entry is None or (until is not None and entry.time > until):
                if until is not None and until > self.now:
                    self.now = until
                break
            self.queue.remove(entry)
            self.popped += 1
            self.now = entry.time
            processed += 1
            args = () if entry.payload is None else (entry.payload,)
            fired.append((entry.ident, entry.time, args))
            task = entry.task
            if task is not None:
                task.entry = None
                if not task.cancelled and self.now + task.interval <= task.until:
                    task.entry = self._push(task.ident, self.now + task.interval,
                                            task=task)
        self.queue = [e for e in self.queue if not e.cancelled]
        self.processed += processed
        return fired

    # -------------------------------------------------------- invariants

    @invariant()
    def counters_match_model(self):
        pending = sum(not e.cancelled for e in self.queue)
        assert self.sim.now == self.now
        assert self.sim.events_processed == self.processed
        assert len(self.sim._queue) == pending
        assert self.sim.queue_stats() == {
            "pushed": self.pushed, "popped": self.popped, "pending": pending}


SimulatorMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)
TestSimulatorMachine = SimulatorMachine.TestCase
