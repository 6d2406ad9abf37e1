"""Tests for repro.trace (ring-buffered structured tracing)."""

import io
import json

import pytest

from repro.trace import (
    DELIVER,
    DROP,
    REASON_LOSS,
    REASON_PARTITION,
    SCHEDULE,
    TraceEvent,
    Tracer,
)


class TestTraceEvent:
    def test_to_dict_omits_missing_fields(self):
        event = TraceEvent(time=1.5, kind=SCHEDULE, src="a", dst="b")
        record = event.to_dict()
        assert record == {"t": 1.5, "kind": SCHEDULE, "src": "a", "dst": "b"}

    def test_detail_is_flattened(self):
        event = TraceEvent(time=0.0, kind=DROP, reason=REASON_LOSS,
                           detail={"attempt": 3})
        assert event.to_dict()["attempt"] == 3

    def test_json_roundtrip(self):
        event = TraceEvent(time=2.0, kind=DELIVER, src="a", dst="b",
                           msg_kind="block")
        assert json.loads(event.to_json())["msg_kind"] == "block"


class TestTracerCounters:
    def test_schedule_resolves_as_deliver_or_drop(self):
        tracer = Tracer()
        tracer.record_schedule(0.0, "a", "b", "tx")
        tracer.record_schedule(0.0, "a", "c", "tx")
        assert tracer.in_flight == 2
        tracer.record_deliver(0.1, "a", "b", "tx")
        tracer.record_drop(0.1, "a", "c", "tx", REASON_PARTITION)
        assert tracer.in_flight == 0
        assert tracer.scheduled == tracer.delivered + tracer.dropped

    def test_per_node_and_per_link_counters(self):
        tracer = Tracer()
        tracer.record_schedule(0.0, "a", "b", "tx")
        tracer.record_deliver(0.1, "a", "b", "tx")
        tracer.record_schedule(0.2, "a", "b", "tx")
        tracer.record_drop(0.3, "a", "b", "tx", REASON_LOSS)
        assert tracer.node_counters("a")["scheduled"] == 2
        assert tracer.node_counters("b") == {
            "scheduled": 0, "delivered": 1, "dropped": 1,
        }
        assert tracer.link_counters("a", "b") == {
            "scheduled": 2, "delivered": 1, "dropped": 1,
        }
        assert tracer.link_counters("b", "a")["scheduled"] == 0

    def test_drop_reasons_tallied(self):
        tracer = Tracer()
        for _ in range(3):
            tracer.record_schedule(0.0, "a", "b", "tx")
            tracer.record_drop(0.0, "a", "b", "tx", REASON_LOSS)
        tracer.record_schedule(0.0, "a", "b", "tx")
        tracer.record_drop(0.0, "a", "b", "tx", REASON_PARTITION)
        assert tracer.drop_reasons == {REASON_LOSS: 3, REASON_PARTITION: 1}

    def test_counters_flat_dict(self):
        tracer = Tracer()
        tracer.record_schedule(0.0, "a", "b", "tx")
        tracer.record_drop(0.0, "a", "b", "tx", REASON_LOSS)
        tracer.record_fork(1.0, "a", height=7)
        flat = tracer.counters()
        assert flat["trace.scheduled"] == 1.0
        assert flat["trace.dropped.loss"] == 1.0
        assert flat["trace.forks"] == 1.0
        assert flat["trace.in_flight"] == 0.0

    def test_summary_renders(self):
        tracer = Tracer()
        tracer.record_schedule(0.0, "a", "b", "tx")
        tracer.record_deliver(0.1, "a", "b", "tx")
        text = tracer.summary()
        assert "scheduled=1" in text and "delivered=1" in text


class TestRingBuffer:
    def test_ring_evicts_but_counters_survive(self):
        tracer = Tracer(capacity=10)
        for i in range(50):
            tracer.record_schedule(float(i), "a", "b", "tx")
            tracer.record_deliver(float(i), "a", "b", "tx")
        assert len(tracer.events()) == 10
        assert tracer.scheduled == 50 and tracer.delivered == 50
        assert tracer.emitted == 100
        # Oldest surviving record is recent, not t=0.
        assert tracer.events()[0].time >= 45.0

    def test_kind_filter(self):
        tracer = Tracer()
        tracer.record_schedule(0.0, "a", "b", "tx")
        tracer.record_deliver(0.1, "a", "b", "tx")
        assert [e.kind for e in tracer.events(DELIVER)] == [DELIVER]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestDumpJsonl:
    def test_dump_to_file_object(self):
        tracer = Tracer()
        tracer.record_schedule(0.0, "a", "b", "tx")
        tracer.record_deliver(0.5, "a", "b", "tx")
        buffer = io.StringIO()
        written = tracer.dump_jsonl(buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert written == 2 and len(lines) == 2
        assert json.loads(lines[1])["kind"] == DELIVER

    def test_dump_to_path_with_filter(self, tmp_path):
        tracer = Tracer()
        tracer.record_schedule(0.0, "a", "b", "tx")
        tracer.record_drop(0.5, "a", "b", "tx", REASON_LOSS)
        out = tmp_path / "trace.jsonl"
        written = tracer.dump_jsonl(str(out), kinds=[DROP])
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert written == 1
        assert records == [{"t": 0.5, "kind": DROP, "src": "a", "dst": "b",
                            "msg_kind": "tx", "reason": REASON_LOSS}]


class TestNullTracer:
    """The no-op tracer is the pay-for-use fast path: call sites gate on
    ``tracer.enabled`` and untraced sweeps must record nothing."""

    def test_disabled_flag(self):
        from repro.trace import NullTracer

        assert Tracer.enabled is True
        assert NullTracer.enabled is False
        assert NullTracer().enabled is False

    @staticmethod
    def _faulty_run(tracer):
        """Lossy links, a partition + heal and a crash + restart under
        payment traffic and a reliable send: every ``record_*``/``emit``
        call site in the fabric, the stack and the fault injector."""
        from repro.dag.bootstrap import build_nano_testbed, fund_accounts
        from repro.faults import FaultInjector
        from repro.net.link import LinkParams
        from repro.net.message import Message

        tb = build_nano_testbed(
            node_count=5, representative_count=2, seed=4, tracer=tracer,
            link_params=LinkParams(latency_s=0.05, jitter_s=0.02,
                                   bandwidth_bps=1e9, loss_probability=0.2),
        )
        users = fund_accounts(tb, 3, 10**6, settle_time=4.0)
        now = tb.simulator.now
        faults = FaultInjector(tb.network)
        faults.partition_at(now + 0.5, [["n0", "n1"], ["n2", "n3", "n4"]])
        faults.heal_at(now + 20.0)  # outlasts the retry budget
        faults.crash_at(now + 1.0, "n1", duration_s=6.0)  # users[1]'s wallet
        for i in range(6):
            sender, recipient = users[i % 3], users[(i + 1) % 3]
            tb.node_for(sender.address).send_payment(
                sender.address, recipient.address, 10)
            tb.nodes[0].send_reliable(
                "n1", Message(kind="ping", payload=i, size_bytes=20))
            tb.simulator.run(until=tb.simulator.now + 1.5)
        tb.simulator.run(until=tb.simulator.now + 30)
        return tb

    def test_records_nothing(self):
        from repro.trace import NullTracer

        real = self._faulty_run(Tracer()).network.tracer
        assert min(real.dropped, real.retransmits, real.gave_up,
                   real.intake_parked, real.intake_revived,
                   real.republished) > 0  # the run reaches the call sites
        assert set(real.drop_reasons) == {"loss", "partition", "offline"}

        tb = self._faulty_run(NullTracer())
        tracer = tb.network.tracer
        assert tb.network.messages_lost > 0
        assert list(tracer.events()) == []
        assert tracer.emitted == 0
        assert set(tracer.counters().values()) == {0.0}

    def test_network_accepts_null_tracer(self):
        from repro.net.message import Message
        from repro.net.network import Network
        from repro.net.node import NetworkNode
        from repro.sim.simulator import Simulator
        from repro.trace import NullTracer

        class Sink(NetworkNode):
            def __init__(self, node_id):
                super().__init__(node_id)
                self.received = []

            def handle_message(self, sender_id, message):
                self.received.append(message.payload)

        sim = Simulator(seed=5)
        net = Network(sim, tracer=NullTracer())
        a, b = Sink("a"), Sink("b")
        net.add_node(a)
        net.add_node(b)
        net.connect("a", "b")
        net.transmit("a", "b", Message(kind="ping", payload="x", size_bytes=10))
        sim.run()
        assert b.received == ["x"]
        assert list(net.tracer.events()) == []
        assert net.tracer.counters()["trace.delivered"] == 0.0
