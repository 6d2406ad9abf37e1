"""Tests for repro.sim (event queue + simulator)."""

import pytest

from repro.sim.events import EventQueue
from repro.sim.simulator import Simulator


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        fired = []
        q.push(2.0, lambda: fired.append("late"))
        q.push(1.0, lambda: fired.append("early"))
        q.pop().action()
        assert fired == ["early"]

    def test_ties_fire_in_scheduling_order(self):
        q = EventQueue()
        first = q.push(1.0, lambda: None)
        second = q.push(1.0, lambda: None)
        assert q.pop() is first
        assert q.pop() is second

    def test_cancellation(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        event.cancel()
        assert q.pop() is None

    def test_len_excludes_cancelled(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        event.cancel()
        assert len(q) == 1

    def test_pop_skips_cancelled(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        q.push(5.0, lambda: None)
        event.cancel()
        assert q.pop().time == 5.0

    def test_empty_pop(self):
        assert EventQueue().pop() is None


class TestSimulator:
    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(3.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [3.5]
        assert sim.now == 3.5

    def test_run_until_stops_clock(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run(until=5.0)
        assert sim.now == 5.0
        sim.run(until=20.0)
        assert sim.now == 20.0
        assert sim.events_processed == 1

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        order = []

        def outer():
            order.append(("outer", sim.now))
            sim.schedule(1.0, lambda: order.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert order == [("outer", 1.0), ("inner", 2.0)]

    def test_periodic(self):
        sim = Simulator()
        ticks = []
        sim.schedule_periodic(2.0, lambda: ticks.append(sim.now), until=9.0)
        sim.run(until=9.0)
        assert ticks == [2.0, 4.0, 6.0, 8.0]

    def test_periodic_requires_positive_interval(self):
        with pytest.raises(ValueError):
            Simulator().schedule_periodic(0.0, lambda: None)

    def test_max_events(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i + 1), lambda: None)
        sim.run(max_events=3)
        assert sim.events_processed == 3

    def test_determinism_across_runs(self):
        def run():
            sim = Simulator(seed=77)
            values = []
            for _ in range(5):
                sim.schedule(sim.rng.random(), lambda: values.append(sim.now))
            sim.run()
            return values

        assert run() == run()

    def test_fork_rng_independent(self):
        sim = Simulator(seed=1)
        a = sim.fork_rng("a")
        b = sim.fork_rng("b")
        assert a.random() != b.random()

    def test_cancel_scheduled_event(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        event.cancel()
        sim.run()
        assert fired == []


class TestCancellationUnderLoad:
    """The optimized queue derives its size from push/pop/cancel counters
    and skips cancelled entries lazily — stress both under heavy churn."""

    def test_mass_cancellation_mid_run(self):
        sim = Simulator(seed=3)
        fired = []
        handles = [
            sim.schedule(float(i + 1), (lambda i=i: fired.append(i)))
            for i in range(500)
        ]
        # Cancel every odd event from inside an early event's action so
        # cancellation interleaves with the running loop.
        sim.schedule(0.5, lambda: [h.cancel() for h in handles[1::2]])
        sim.run()
        assert fired == list(range(0, 500, 2))
        stats = sim.queue_stats()
        assert stats["pending"] == 0
        # 500 + the canceller fired/cancelled; popped excludes cancelled.
        assert stats["popped"] == 251

    def test_len_stays_consistent_with_interleaved_ops(self):
        q = EventQueue()
        live = []
        for i in range(200):
            live.append(q.push(float(i), lambda: None))
            if i % 3 == 0:
                live.pop(0).cancel()
            if i % 5 == 0 and len(q):
                popped = q.pop()
                if popped is not None and popped in live:
                    live.remove(popped)
        assert len(q) == len(live)

    def test_double_cancel_counted_once(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert len(q) == 1

    def test_cancel_after_pop_is_harmless(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        assert q.pop() is event
        event.cancel()  # already detached from the queue
        assert len(q) == 0

    def test_cancelled_run_is_deterministic(self):
        def run():
            sim = Simulator(seed=9)
            order = []
            handles = []
            for _ in range(100):
                delay = sim.rng.random() * 10
                handles.append(sim.schedule(delay, lambda d=delay: order.append(d)))
            for i, h in enumerate(handles):
                if i % 4 == 0:
                    h.cancel()
            sim.run()
            return order, sim.events_processed

        assert run() == run()


class TestPeriodicClamp:
    def test_until_between_ticks_stops_at_bound(self):
        sim = Simulator()
        ticks = []
        # until=5.0 falls between the 4.0 and 6.0 ticks; the 6.0 tick must
        # never be scheduled (the queue drains at the bound).
        sim.schedule_periodic(2.0, lambda: ticks.append(sim.now), until=5.0)
        sim.run()
        assert ticks == [2.0, 4.0]
        assert sim.queue_stats()["pending"] == 0

    def test_tick_landing_exactly_on_until_fires(self):
        sim = Simulator()
        ticks = []
        sim.schedule_periodic(2.0, lambda: ticks.append(sim.now), until=6.0)
        sim.run()
        assert ticks == [2.0, 4.0, 6.0]

    def test_first_tick_past_until_never_fires(self):
        sim = Simulator()
        ticks = []
        sim.schedule_periodic(10.0, lambda: ticks.append(sim.now), until=5.0)
        sim.run()
        assert ticks == []
        assert sim.queue_stats()["pushed"] == 0

    def test_start_delay_respected_with_until(self):
        sim = Simulator()
        ticks = []
        sim.schedule_periodic(
            2.0, lambda: ticks.append(sim.now), start_delay=1.0, until=5.0
        )
        sim.run()
        assert ticks == [1.0, 3.0, 5.0]


class TestPeriodicTask:
    def test_cancel_stops_future_ticks(self):
        sim = Simulator()
        ticks = []
        task = sim.schedule_periodic(2.0, lambda: ticks.append(sim.now))
        sim.run(until=5.0)
        assert task.active
        task.cancel()
        assert not task.active and task.cancelled
        sim.run(until=20.0)
        assert ticks == [2.0, 4.0]

    def test_action_may_cancel_its_own_task_mid_tick(self):
        """The in-loop invariant monitor detaches itself from inside the
        periodic action on first violation — that must stop the loop."""
        sim = Simulator()
        ticks = []
        task = sim.schedule_periodic(
            2.0, lambda: (ticks.append(sim.now),
                          task.cancel() if len(ticks) >= 2 else None),
        )
        sim.run(until=30.0)
        assert ticks == [2.0, 4.0]
        assert not task.active

    def test_task_past_until_is_inactive(self):
        sim = Simulator()
        task = sim.schedule_periodic(10.0, lambda: None, until=5.0)
        assert not task.active  # first tick would land past the bound
        sim.run()
        assert sim.queue_stats()["pushed"] == 0


class TestHaltAndStats:
    def test_halt_stops_run_mid_queue(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.halt()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]
        # A fresh run resumes from where the halt left off.
        sim.run()
        assert fired == [1, 2]

    def test_queue_stats_counts_scheduling(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        sim.run(until=3.0)
        stats = sim.queue_stats()
        assert stats["pushed"] == 5
        assert stats["popped"] == 3
        assert stats["pending"] == 2
