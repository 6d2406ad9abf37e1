"""Tests for repro.faults (scheduled crashes, churn, link faults,
partitions) — the degraded regimes of Section IV / Section VI-B."""

import pytest

from repro.faults import ChurnParams, FaultInjector
from repro.net.link import BLACKHOLE_LINK, FAST_LINK, LinkParams
from repro.net.network import Network
from repro.net.node import NetworkNode
from repro.net.topology import complete_topology, line_topology
from repro.sim.simulator import Simulator
from repro.trace import (
    CRASH,
    DEGRADE,
    HEAL,
    PARTITION,
    RESTART,
    RESTORE,
    NullTracer,
    Tracer,
)

pytestmark = pytest.mark.faults


class Recorder(NetworkNode):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = []

    def handle_message(self, sender_id, message):
        self.received.append((sender_id, message.payload))


def make_message(payload="x", size=100):
    from repro.net.message import Message

    return Message(kind="test", payload=payload, size_bytes=size)


def build(count=4, topology=complete_topology, link=FAST_LINK, seed=0):
    sim = Simulator(seed=seed)
    net = Network(sim)
    nodes = topology(net, count, Recorder, link)
    return sim, net, list(nodes), FaultInjector(net)


class TestCrashRestart:
    def test_crash_takes_node_offline(self):
        sim, net, nodes, injector = build()
        injector.crash("n1")
        assert not nodes[1].online
        assert injector.crashes_injected == 1
        assert len(net.tracer.events(CRASH)) == 1

    def test_crash_is_idempotent(self):
        sim, net, nodes, injector = build()
        injector.crash("n1")
        injector.crash("n1")
        assert injector.crashes_injected == 1

    def test_restart_only_after_crash(self):
        sim, net, nodes, injector = build()
        injector.restart("n1")  # already online: no-op
        assert injector.restarts_injected == 0
        injector.crash("n1")
        injector.restart("n1")
        assert nodes[1].online
        assert injector.restarts_injected == 1
        assert len(net.tracer.events(RESTART)) == 1

    def test_crash_at_with_duration_schedules_both(self):
        sim, net, nodes, injector = build()
        injector.crash_at(10.0, "n2", duration_s=5.0)
        sim.run(until=12.0)
        assert not nodes[2].online
        sim.run(until=16.0)
        assert nodes[2].online

    def test_crash_window_drops_then_recovers_gossip(self):
        """A broadcast during a crash window reaches the crashed node
        after its restart (parked retry kicked by set_online)."""
        sim, net, nodes, injector = build()
        injector.crash_at(1.0, "n3", duration_s=20.0)
        sim.schedule_at(2.0, lambda: nodes[0].broadcast(make_message("late")))
        sim.run()
        assert ("late" in [p for _, p in nodes[3].received])

    def test_crash_at_rejects_bad_duration(self):
        _, _, _, injector = build()
        with pytest.raises(ValueError):
            injector.crash_at(1.0, "n0", duration_s=0.0)


class TestChurn:
    def test_churn_schedules_cycles(self):
        sim, net, nodes, injector = build(seed=3)
        cycles = injector.churn(
            ["n0", "n1"], ChurnParams(mtbf_s=20.0, downtime_s=5.0, until_s=200.0)
        )
        assert cycles > 0
        sim.run(until=200.0)
        assert injector.crashes_injected == cycles
        assert injector.restarts_injected == cycles
        assert all(n.online for n in nodes)

    def test_churn_schedule_is_per_node_stable(self):
        """Adding churn on another node does not perturb the first
        node's schedule (label-forked RNG streams)."""

        def crash_times(node_ids):
            sim, net, nodes, injector = build(seed=3)
            injector.churn(
                node_ids, ChurnParams(mtbf_s=20.0, downtime_s=5.0, until_s=200.0)
            )
            times = []
            original = injector.crash

            def recording_crash(node_id):
                if node_id == "n0":
                    times.append(sim.now)
                original(node_id)

            injector.crash = recording_crash
            sim.run(until=200.0)
            return times

        assert crash_times(["n0"]) == crash_times(["n0", "n1"])

    def test_churn_requires_horizon(self):
        _, _, _, injector = build()
        with pytest.raises(ValueError):
            injector.churn(["n0"], ChurnParams(mtbf_s=10.0, downtime_s=1.0))

    def test_churn_params_validate(self):
        with pytest.raises(ValueError):
            ChurnParams(mtbf_s=0.0, downtime_s=1.0)
        with pytest.raises(ValueError):
            ChurnParams(mtbf_s=1.0, downtime_s=-1.0)


class TestLinkFaults:
    def test_degrade_and_restore_roundtrip(self):
        sim, net, nodes, injector = build()
        original = net.link_params("n0", "n1")
        degraded = LinkParams(latency_s=2.0, loss_probability=0.5)
        injector.degrade_link("n0", "n1", degraded)
        assert net.link_params("n0", "n1") is degraded
        assert net.link_params("n1", "n0") is degraded
        injector.restore_link("n0", "n1")
        assert net.link_params("n0", "n1") is original
        assert len(net.tracer.events(DEGRADE)) == 1
        assert len(net.tracer.events(RESTORE)) == 1

    def test_restore_without_degrade_is_noop(self):
        sim, net, nodes, injector = build()
        injector.restore_link("n0", "n1")
        assert net.tracer.events(RESTORE) == []

    def test_double_degrade_restores_true_original(self):
        """Nested degradations: each degrade opens a window, each
        restore closes one, and only the last restore swaps the true
        original back in (never the intermediate degraded params)."""
        sim, net, nodes, injector = build()
        original = net.link_params("n0", "n1")
        injector.degrade_link("n0", "n1", LinkParams(loss_probability=0.5))
        injector.degrade_link("n0", "n1", BLACKHOLE_LINK)
        injector.restore_link("n0", "n1")
        # One window still open: the link stays degraded.
        assert net.link_params("n0", "n1") is BLACKHOLE_LINK
        injector.restore_link("n0", "n1")
        assert net.link_params("n0", "n1") is original

    def test_overlapping_degrade_windows_do_not_cancel_each_other(self):
        """Regression: the first window's scheduled restore used to pop
        the saved original and prematurely cancel the still-active
        second degradation.  With window depth tracking, the link stays
        degraded until the *last* overlapping window ends."""
        sim, net, nodes, injector = build()
        original = net.link_params("n0", "n1")
        first = LinkParams(latency_s=5.0, loss_probability=0.5)
        second = BLACKHOLE_LINK
        # Windows [10, 30) and [20, 50) overlap on [20, 30).
        injector.degrade_link_at(10.0, "n0", "n1", first, duration_s=20.0)
        injector.degrade_link_at(20.0, "n0", "n1", second, duration_s=30.0)
        sim.run(until=35.0)
        # First window's restore fired at t=30, but the second window is
        # still open: the link must remain degraded.
        assert net.link_params("n0", "n1") is second
        assert injector.fault_counts()["degraded_links_active"] == 2
        sim.run(until=55.0)
        # Second window's restore at t=50 closes the last window.
        assert net.link_params("n0", "n1") is original
        assert injector.fault_counts()["degraded_links_active"] == 0

    def test_blackhole_window_on_a_line(self):
        """A blackhole on the only path stalls gossip; restore recovers
        it via the retry queue."""
        sim, net, nodes, injector = build(count=3, topology=line_topology)
        injector.degrade_link_at(1.0, "n1", "n2",
                                 LinkParams(loss_probability=1.0),
                                 duration_s=60.0)
        sim.schedule_at(2.0, lambda: nodes[0].broadcast(make_message("thru")))
        sim.run(until=30.0)
        assert nodes[1].received and not nodes[2].received
        sim.run()
        assert [p for _, p in nodes[2].received] == ["thru"]

    def test_degrade_unknown_link_raises(self):
        _, _, _, injector = build(count=3, topology=line_topology)
        with pytest.raises(KeyError):
            injector.degrade_link("n0", "n2", BLACKHOLE_LINK)


class TestPartitionSchedules:
    def test_partition_at_with_auto_heal(self):
        sim, net, nodes, injector = build()
        injector.partition_at(10.0, [["n0", "n1"], ["n2", "n3"]],
                              heal_after_s=20.0)
        sim.schedule_at(15.0, lambda: nodes[0].broadcast(make_message("cut")))
        sim.run(until=20.0)
        assert nodes[2].received == [] and nodes[3].received == []
        sim.run()
        for node in nodes[1:]:
            assert [p for _, p in node.received] == ["cut"]
        assert len(net.tracer.events(PARTITION)) == 1
        assert len(net.tracer.events(HEAL)) == 1

    def test_partition_at_rejects_bad_heal(self):
        _, _, _, injector = build()
        with pytest.raises(ValueError):
            injector.partition_at(1.0, [["n0"], ["n1"]], heal_after_s=0.0)

    def test_fault_counts(self):
        sim, net, nodes, injector = build()
        injector.crash("n0")
        injector.restart("n0")
        injector.degrade_link("n1", "n2", BLACKHOLE_LINK)
        injector.partition_at(5.0, [["n0", "n1"], ["n2", "n3"]],
                              heal_after_s=5.0)
        sim.run()
        counts = injector.fault_counts()
        assert counts["crashes"] == 1
        assert counts["restarts"] == 1
        assert counts["degraded_links_active"] == 2  # both directions
        assert counts["partitions"] == 1
        assert counts["heals"] == 1

    @pytest.mark.parametrize("make_tracer",
                             [lambda: Tracer(capacity=8), NullTracer],
                             ids=["tiny-ring", "null-tracer"])
    def test_partition_and_heal_counts_do_not_depend_on_the_ring(
            self, make_tracer):
        """Regression: the counts used to be a scan of the trace ring, so
        they shrank to 0/0 once later traffic evicted the two markers and
        were always 0/0 on a tracer that keeps no records."""
        tracer = make_tracer()
        sim = Simulator(seed=5)
        net = Network(sim, tracer=tracer)
        nodes = complete_topology(net, 4, Recorder, FAST_LINK)
        injector = FaultInjector(net)
        injector.partition_at(1.0, [["n0", "n1"], ["n2", "n3"]],
                              heal_after_s=1.0)
        for i in range(5):
            sim.schedule_at(3.0 + i, lambda i=i: nodes[0].broadcast(
                make_message(f"later-{i}")))
        sim.run()
        assert len(tracer.events()) <= 8  # the markers are long gone
        counts = injector.fault_counts()
        assert (counts["partitions"], counts["heals"]) == (1, 1)
        injector.partition([["n0"], ["n1", "n2", "n3"]])
        injector.heal()
        counts = injector.fault_counts()
        assert (counts["partitions"], counts["heals"]) == (2, 2)
