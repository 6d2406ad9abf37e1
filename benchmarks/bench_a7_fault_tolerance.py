"""Ablation A7: gossip under injected faults — partition, heal, churn.

The paper's consistency claims (Section IV's disagreement windows,
Section VI-B's real-world limitations) are statements about *degraded*
propagation.  This bench drives the gossip fabric through a timed
partition with automatic heal plus crash/restart churn and asserts the
two recovery properties the fault-injection layer exists to provide:

* delivery recovers to 100% after heal — every broadcast reaches every
  node, including messages first flooded *inside* the partition window;
* the structured trace accounts for every attempt — ``scheduled ==
  delivered + dropped`` with nothing left in flight.
"""

import time

import pytest

from conftest import report

from repro.core.experiment import EXPERIMENTS
from repro.runner import make_result
from repro.faults import ChurnParams, FaultInjector
from repro.metrics.stats import windowed_rate
from repro.metrics.tables import render_table
from repro.net.link import FAST_LINK
from repro.net.network import Network
from repro.net.node import NetworkNode
from repro.net.topology import complete_topology, small_world_topology
from repro.sim.simulator import Simulator
from repro.trace import DELIVER
from repro.workloads.generators import gossip_workload

pytestmark = pytest.mark.faults

NODES = 12
DURATION = 120.0
PARTITION_AT = 30.0
HEAL_AFTER = 30.0


def run_fault_scenario(seed=7, nodes_n=NODES, duration=DURATION,
                       partition_at=PARTITION_AT, heal_after=HEAL_AFTER,
                       rate_tps=0.5, churn_nodes=2):
    if nodes_n < 2:
        raise ValueError("nodes must be at least 2")
    sim = Simulator(seed=seed)
    net = Network(sim)
    # Watts-Strogatz needs count > k; tiny networks get a clique.
    if nodes_n > 4:
        nodes = small_world_topology(net, nodes_n, NetworkNode,
                                     link_params=FAST_LINK, seed=seed)
    else:
        nodes = complete_topology(net, nodes_n, NetworkNode, FAST_LINK)
    injector = FaultInjector(net)
    half = [n.node_id for n in nodes[: nodes_n // 2]]
    rest = [n.node_id for n in nodes[nodes_n // 2:]]
    injector.partition_at(partition_at, [half, rest], heal_after_s=heal_after)
    injector.churn(
        [n.node_id for n in nodes[:churn_nodes]],
        ChurnParams(mtbf_s=duration / 4, downtime_s=10.0,
                    until_s=duration * 0.6),
    )
    sent = gossip_workload(sim, nodes, rate_tps=rate_tps, duration_s=duration)
    sim.run(until=duration)
    sim.run()  # drain retransmissions scheduled past the horizon
    return net, injector, nodes, sent


def test_a7_fault_tolerance(benchmark):
    net, injector, nodes, sent = benchmark.pedantic(
        run_fault_scenario, rounds=1, iterations=1
    )
    tracer = net.tracer

    # Recovery: every broadcast reached every non-origin node exactly
    # once, despite 60 s of partition and repeated node crashes.
    expected = len(sent) * (len(nodes) - 1)
    received = sum(n.messages_received for n in nodes)
    assert len(sent) > 20
    assert received == expected

    # Accounting: the trace resolves every scheduled attempt exactly
    # once, so drops + deliveries == scheduled transmissions.
    assert tracer.scheduled == tracer.delivered + tracer.dropped
    assert tracer.in_flight == 0
    assert net.pending_retries() == 0

    # The faults actually bit: cross-partition traffic was dropped and
    # the retransmit path did real work to recover it.
    assert tracer.drop_reasons.get("partition", 0) > 0
    assert tracer.retransmits > 0
    assert injector.crashes_injected > 0
    assert injector.crashes_injected == injector.restarts_injected

    delivery_times = [e.time for e in tracer.events(DELIVER)]
    rows = [
        [f"{edge - 15:.0f}-{edge:.0f}", f"{rate:.2f}"]
        for edge, rate in windowed_rate(delivery_times, 15.0)
    ]
    report(
        "A7 fault tolerance: delivery rate through a "
        f"{HEAL_AFTER:.0f} s partition at t={PARTITION_AT:.0f} s "
        f"({received}/{expected} delivered; {tracer.summary()})",
        render_table(["window (s)", "deliveries/s"], rows),
    )


def run(params: dict, seed: int) -> dict:
    """Uniform sweep entry point (see repro.runner.spec)."""
    started = time.perf_counter()
    p = {**dict(EXPERIMENTS["A7"].default_params), **(params or {})}
    net, injector, nodes, sent = run_fault_scenario(
        seed=seed, nodes_n=p["nodes"], duration=p["duration_s"],
        partition_at=p["partition_at_s"], heal_after=p["heal_after_s"],
        rate_tps=p["rate_tps"], churn_nodes=p["churn_nodes"],
    )
    tracer = net.tracer
    expected = len(sent) * (len(nodes) - 1)
    received = sum(n.messages_received for n in nodes)
    metrics = {
        "broadcasts": len(sent),
        "delivery_fraction": received / max(expected, 1),
        "partition_drops": tracer.drop_reasons.get("partition", 0),
        "retransmits": tracer.retransmits,
        "crashes_injected": injector.crashes_injected,
        "accounting_ok": (
            tracer.scheduled == tracer.delivered + tracer.dropped
            and tracer.in_flight == 0
        ),
    }
    trace = None
    if p["capture_trace"]:
        trace = [e.to_dict() for e in tracer.events()]
    return make_result("A7", p, seed, metrics, started=started, trace=trace)


if __name__ == "__main__":
    from conftest import bench_main

    bench_main(run)
