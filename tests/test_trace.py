"""Tests for repro.trace (ring-buffered structured tracing)."""

import hashlib
import io
import json

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

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


class TestTailRead:
    def test_last_n_is_the_tail_of_the_full_read(self):
        tracer = Tracer(capacity=10)
        for i in range(25):
            tracer.record_schedule(float(i), "a", "b", "tx")
        assert tracer.events(last=3) == tracer.events()[-3:]
        assert [e.time for e in tracer.events(last=3)] == [22.0, 23.0, 24.0]
        assert tracer.events(last=0) == []
        assert tracer.events(last=99) == tracer.events()

    def test_last_n_of_one_kind(self):
        tracer = Tracer()
        for i in range(4):
            tracer.record_schedule(float(i), "a", "b", "tx")
            tracer.record_deliver(float(i), "a", "b", "tx")
        tail = tracer.events(DELIVER, last=2)
        assert [(e.kind, e.time) for e in tail] == [(DELIVER, 2.0), (DELIVER, 3.0)]

    def test_emit_returns_nothing(self):
        assert Tracer().emit(0.0, "crash", src="a") is None


# --------------------------------------------------------------------------
# Model-based test: the tuple ring against the eager tracer it replaced
# --------------------------------------------------------------------------


class EagerTracer:
    """The implementation this module had before the tuple ring, kept
    deliberately naive: every record builds its :class:`TraceEvent` (and
    detail dict) at once, per-node and per-link counters are
    dicts of dicts.  The reference ``TracerMachine`` compares against."""

    def __init__(self, capacity):
        self.ring = []
        self.capacity = capacity
        self.emitted = 0
        self.totals = dict.fromkeys(
            ("scheduled", "delivered", "dropped", "retransmits", "gave_up",
             "forks", "intake_parked", "intake_revived", "intake_evicted",
             "republished"), 0)
        self.drop_reasons = {}
        self.per_node = {}
        self.per_link = {}

    @staticmethod
    def blank():
        return {"scheduled": 0, "delivered": 0, "dropped": 0}

    def emit(self, time, kind, src=None, dst=None, msg_kind=None,
             reason=None, **detail):
        self.ring.append(TraceEvent(time, kind, src, dst, msg_kind, reason,
                                    detail or None))
        del self.ring[:-self.capacity]
        self.emitted += 1

    def count(self, name, node, src, dst):
        self.totals[name] += 1
        self.per_node.setdefault(node, self.blank())[name] += 1
        self.per_link.setdefault((src, dst), self.blank())[name] += 1

    def record_schedule(self, time, src, dst, msg_kind, attempt=1):
        self.count("scheduled", src, src, dst)
        self.emit(time, SCHEDULE, src, dst, msg_kind, attempt=attempt)

    def record_deliver(self, time, src, dst, msg_kind):
        self.count("delivered", dst, src, dst)
        self.emit(time, DELIVER, src, dst, msg_kind)

    def record_drop(self, time, src, dst, msg_kind, reason):
        self.count("dropped", dst, src, dst)
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1
        self.emit(time, DROP, src, dst, msg_kind, reason)

    def record_retransmit(self, time, src, dst, msg_kind, attempt, delay):
        self.totals["retransmits"] += 1
        self.emit(time, "retransmit", src, dst, msg_kind, attempt=attempt,
                  delay=delay)

    def record_give_up(self, time, src, dst, msg_kind, attempts):
        self.totals["gave_up"] += 1
        self.emit(time, "give_up", src, dst, msg_kind, attempts=attempts)

    def record_fork(self, time, node_id, **detail):
        self.totals["forks"] += 1
        self.emit(time, "fork", src=node_id, **detail)

    def record_intake_park(self, time, node_id, missing, evicted=0):
        self.totals["intake_parked"] += 1
        self.totals["intake_evicted"] += evicted
        self.emit(time, "intake_park", dst=node_id, missing=str(missing),
                  evicted=evicted)

    def record_intake_revive(self, time, node_id, count):
        self.totals["intake_revived"] += count
        self.emit(time, "intake_revive", dst=node_id, count=count)

    def record_republish(self, time, node_id, count):
        self.totals["republished"] += count
        self.emit(time, "republish", src=node_id, count=count)

    def counters(self):
        totals = self.totals
        flat = {
            "trace.scheduled": float(totals["scheduled"]),
            "trace.delivered": float(totals["delivered"]),
            "trace.dropped": float(totals["dropped"]),
            "trace.retransmits": float(totals["retransmits"]),
            "trace.give_ups": float(totals["gave_up"]),
            "trace.forks": float(totals["forks"]),
            "trace.in_flight": float(totals["scheduled"] - totals["delivered"]
                                     - totals["dropped"]),
            "trace.intake_parked": float(totals["intake_parked"]),
            "trace.intake_revived": float(totals["intake_revived"]),
            "trace.intake_evicted": float(totals["intake_evicted"]),
            "trace.republished": float(totals["republished"]),
        }
        for reason, count in self.drop_reasons.items():
            flat[f"trace.dropped.{reason}"] = float(count)
        return flat

    def fingerprint(self):
        parts = [f"emitted={self.emitted}"]
        parts += [f"{name}={count}" for name, count in self.totals.items()]
        parts += [f"drop:{reason}={count}"
                  for reason, count in sorted(self.drop_reasons.items())]
        for node_id, counters in sorted(self.per_node.items()):
            parts += [f"node:{node_id}:{name}={count}"
                      for name, count in sorted(counters.items())]
        for (src, dst), counters in sorted(self.per_link.items()):
            parts += [f"link:{src}->{dst}:{name}={count}"
                      for name, count in sorted(counters.items())]
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()

    def dump(self, kinds=None):
        return "".join(event.to_json() + "\n" for event in self.ring
                       if kinds is None or event.kind in kinds)


_nodes = st.sampled_from(["n0", "n1", "n2"])
_times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
_msg_kinds = st.sampled_from(["tx", "blk"])
_small = st.integers(min_value=0, max_value=5)


class TracerMachine(RuleBasedStateMachine):
    """Random ``record_*``/``emit`` calls into a 6-slot ring; every read
    the tracer offers must agree with :class:`EagerTracer` after every
    step, before and after the ring starts evicting."""

    CAPACITY = 6

    def __init__(self):
        super().__init__()
        self.tracer = Tracer(capacity=self.CAPACITY)
        self.model = EagerTracer(self.CAPACITY)

    def both(self, method, *args, **kwargs):
        getattr(self.tracer, method)(*args, **kwargs)
        getattr(self.model, method)(*args, **kwargs)

    @rule(time=_times, src=_nodes, dst=_nodes, msg_kind=_msg_kinds,
          attempt=st.integers(min_value=1, max_value=4))
    def schedule(self, time, src, dst, msg_kind, attempt):
        self.both("record_schedule", time, src, dst, msg_kind, attempt)

    @rule(time=_times, src=_nodes, dst=_nodes, msg_kind=_msg_kinds)
    def deliver(self, time, src, dst, msg_kind):
        self.both("record_deliver", time, src, dst, msg_kind)

    @rule(time=_times, src=_nodes, dst=_nodes, msg_kind=_msg_kinds,
          reason=st.sampled_from(["loss", "partition", "offline"]))
    def drop(self, time, src, dst, msg_kind, reason):
        self.both("record_drop", time, src, dst, msg_kind, reason)

    @rule(time=_times, src=_nodes, dst=_nodes, msg_kind=_msg_kinds,
          attempt=_small, delay=_times)
    def retransmit(self, time, src, dst, msg_kind, attempt, delay):
        self.both("record_retransmit", time, src, dst, msg_kind, attempt,
                  delay)

    @rule(time=_times, src=_nodes, dst=_nodes, msg_kind=_msg_kinds,
          attempts=_small)
    def give_up(self, time, src, dst, msg_kind, attempts):
        self.both("record_give_up", time, src, dst, msg_kind, attempts)

    @rule(time=_times, node=_nodes,
          detail=st.dictionaries(st.sampled_from(["height", "depth"]), _small))
    def fork(self, time, node, detail):
        self.both("record_fork", time, node, **detail)

    @rule(time=_times, node=_nodes, evicted=_small,
          missing=st.one_of(st.binary(max_size=4), st.integers(),
                            st.tuples(st.text(max_size=3), _small)))
    def intake_park(self, time, node, missing, evicted):
        self.both("record_intake_park", time, node, missing, evicted)

    @rule(time=_times, node=_nodes, count=_small)
    def intake_revive(self, time, node, count):
        self.both("record_intake_revive", time, node, count)

    @rule(time=_times, node=_nodes, count=_small)
    def republish(self, time, node, count):
        self.both("record_republish", time, node, count)

    @rule(time=_times,
          kind=st.sampled_from(["crash", "partition", "heal", SCHEDULE]),
          src=st.none() | _nodes, reason=st.none() | st.just("equivocate"),
          detail=st.dictionaries(st.sampled_from(["groups", "loss"]),
                                 st.lists(_small, max_size=2) | _small))
    def emit(self, time, kind, src, reason, detail):
        self.both("emit", time, kind, src=src, reason=reason, **detail)

    @invariant()
    def reads_match_the_eager_model(self):
        tracer, model = self.tracer, self.model
        assert tracer.events() == model.ring
        for kind in {event.kind for event in model.ring} | {DELIVER}:
            of_kind = [e for e in model.ring if e.kind == kind]
            assert tracer.events(kind) == of_kind
            assert tracer.events(kind, last=2) == of_kind[-2:]
        for n in (0, 1, self.CAPACITY - 1, self.CAPACITY + 3):
            assert tracer.events(last=n) == (model.ring[-n:] if n else [])
        for node in ("n0", "n1", "n2"):
            assert tracer.node_counters(node) == model.per_node.get(
                node, model.blank())
            for dst in ("n0", "n1", "n2"):
                assert tracer.link_counters(node, dst) == model.per_link.get(
                    (node, dst), model.blank())
        assert tracer.emitted == model.emitted
        assert tracer.counters() == model.counters()
        assert list(tracer.counters()) == list(model.counters())
        assert tracer.fingerprint() == model.fingerprint()
        buffer = io.StringIO()
        assert tracer.dump_jsonl(buffer) == len(model.ring)
        assert buffer.getvalue() == model.dump()
        buffer = io.StringIO()
        tracer.dump_jsonl(buffer, kinds=[DROP, "fork"])
        assert buffer.getvalue() == model.dump({DROP, "fork"})


TracerMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestTracerMachine = TracerMachine.TestCase


# --------------------------------------------------------------------------
# Goldens captured on the commit before the tuple ring (seed 1)
# --------------------------------------------------------------------------

#: scenario -> (emitted, records still in the ring, fingerprint(),
#: sha256 of the dump_jsonl text, summary()).  Both perfbench scenarios
#: overflow the 65 536-record ring, so the dump is the evicted tail.
GOLDENS = {
    "faults_cli": (
        2687, 2687,
        "dbb1865cd49d11bddbe8d87244aab02c6502863a47af10b06bbedaba8f180fa1",
        "50e228bca302f69790114277b4e1ec86d4adc1a491b5675a14e5f21dffbcb18c",
        "scheduled=1094 delivered=605 dropped=489 (offline=44, partition=445) "
        "retransmits=466 in_flight=0"),
    "bft_faults": (
        81785, 65536,
        "80aabff57c3e06cefed3f9eb9fe0521c17285a66286fcfa7a610634dc8579e84",
        "21861a244a3b2a2c4f130ee8a57bbdedf4e022f1eeb17bb72bcc2f0908c81f30",
        "scheduled=35835 delivered=25763 dropped=10072 (offline=4936, "
        "partition=5136) retransmits=9269 in_flight=0"),
    "nano_load": (
        84423, 65536,
        "4eb242527cc251c463bcfaba8e26360d23f1dd87ec41975d8a1bee8057083761",
        "72b4b703c2681626d26dcd23168fd984e0e02c7da4f1780df19b7418d3a4e372",
        "scheduled=42000 delivered=42000 dropped=0 (none) retransmits=0 "
        "in_flight=0"),
}


def _observed(tracer):
    buffer = io.StringIO()
    written = tracer.dump_jsonl(buffer)
    return (tracer.emitted, written, tracer.fingerprint(),
            hashlib.sha256(buffer.getvalue().encode()).hexdigest(),
            tracer.summary())


class TestGoldens:
    """The lazily materialised trace is byte-identical to the eager one."""

    def test_seeded_faults_scenario(self, monkeypatch, capsys):
        import repro.net.network as network_module
        from repro.cli import main
        from repro.core.experiment import EXPERIMENTS

        built = []

        class Recording(network_module.Network):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        # The bench binds ``Network`` at import, so patch its name too.
        monkeypatch.setattr(network_module, "Network", Recording)
        monkeypatch.setattr(EXPERIMENTS["A7"].load_module(), "Network",
                            Recording)
        assert main(["bench", "A7", "--seed", "1"]) == 0
        capsys.readouterr()
        assert _observed(built[-1].tracer) == GOLDENS["faults_cli"]

    @pytest.mark.parametrize("name", ["bft_faults", "nano_load"])
    def test_perfbench_workload_at_one_fifth_scale(self, name):
        from importlib.util import module_from_spec, spec_from_file_location
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = spec_from_file_location("perfbench_workloads", path)
        workloads = module_from_spec(spec)
        spec.loader.exec_module(workloads)
        workload = workloads.WORKLOADS[name]()
        workload.setup(1, 0.2)
        workload.timed()
        assert _observed(workload.deployment.network.tracer) == GOLDENS[name]
