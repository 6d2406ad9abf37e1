"""A10 (scale tier): TPS and propagation curves at 10^2 -> 10^4+ nodes.

The paper's Section VI numbers are protocol properties, but the *shape*
of the comparison — a protocol-capped blockchain vs a hardware-bound
DAG — should survive scaling the gossip population far past what a
fully-simulated deployment can afford.  Two tracks extend the curves:

* **Aggregate tier** — ``build_deployment(topology_scale=N)`` keeps a
  small fully-simulated boundary and models the surplus with mean-field
  :class:`~repro.net.aggregate.AggregateCluster` leaves (validated
  against exact small-N floods in tests/test_net_aggregate.py).
* **Sharded tier** — :class:`~repro.sim.sharded.ShardedPropagation`
  partitions one large flood into shards with epoch-barrier message
  exchange, seed-stable by construction.
* **Sharded traffic tier** — ``build_deployment(topology_scale=
  TopologyScale(plane="sharded"))`` runs *full protocol traffic* (every
  gossiped tx/block) over a
  :class:`~repro.net.sharded_plane.ShardedMessagePlane` crowd, with
  plane fingerprints pinned to a golden.
"""

import hashlib
import time
from dataclasses import replace

from conftest import report

from repro.blockchain.params import BITCOIN
from repro.core.deploy import build_deployment
from repro.core.experiment import EXPERIMENTS
from repro.metrics.tables import render_table
from repro.net.aggregate import TopologyScale
from repro.net.link import FAST_LINK
from repro.runner import make_result
from repro.sim.sharded import ShardedConfig, ShardedPropagation
from repro.workloads.open_loop import OpenLoopInjector

#: The decade sweep both paradigms walk (10^2 -> 10^4 total nodes).
SCALES = (100, 1_000, 10_000)


def measure_scale_point(paradigm, total_nodes, seed, duration_s=120.0,
                        offered_tps=2.0):
    """One (paradigm, population) point: settled TPS plus the aggregate
    tier's propagation picture."""
    if paradigm == "blockchain":
        # A miniature Bitcoin: 15 s blocks, 8 KB caps => ~2.1 TPS ceiling.
        params = replace(BITCOIN, target_block_interval_s=15.0,
                         max_block_size_bytes=8_000, confirmation_depth=2)
        deployment = build_deployment(
            "blockchain", chain_params=params, node_count=4,
            link_params=FAST_LINK, seed=seed, topology_scale=total_nodes)
    elif paradigm == "dag":
        deployment = build_deployment(
            "dag", node_count=4, representative_count=2, seed=seed,
            topology_scale=total_nodes)
    else:
        raise ValueError(f"paradigm {paradigm!r} has no scale curve")
    deployment.setup(8, 10**9)
    injector = OpenLoopInjector.from_sim_stream(
        deployment.ledger, accounts=8, rate_tps=offered_tps,
        duration_s=duration_s)
    injector.start()
    deployment.ledger.advance(duration_s * 1.25)
    confirmed = deployment.ledger.stats().entries_confirmed
    point = {
        "paradigm": paradigm,
        "total_nodes": total_nodes,
        "offered": injector.report.offered,
        "confirmed": confirmed,
        "tps": confirmed / duration_s,
    }
    point.update(deployment.scale_stats())
    return point


def sharded_point(total_nodes, shards, seed):
    """One sharded-flood point: coverage, latency percentiles and the
    arrival-vector fingerprint (the determinism witness)."""
    config = ShardedConfig(total_nodes=total_nodes, shards=shards,
                           seed=seed)
    started = time.perf_counter()
    result = ShardedPropagation(config).run_with(0)
    wall_s = time.perf_counter() - started
    return {
        "total_nodes": total_nodes,
        "shards": shards,
        "reached": result.reached,
        "epochs": result.epochs,
        "cross_shard_messages": result.cross_shard_messages,
        "p50_s": result.percentile(50),
        "p95_s": result.percentile(95),
        "fingerprint": result.fingerprint(),
        "nodes_per_s": total_nodes / max(wall_s, 1e-9),
    }


def sharded_traffic_point(paradigm, total_nodes, seed, *, shards=4,
                          duration_s=30.0, offered_tps=1.0):
    """One full-protocol-traffic point on the sharded plane: every
    gossiped tx/block is timed by an epoch-barrier crowd propagation
    over all ``total_nodes`` (not a mean-field model of them)."""
    scale = TopologyScale(total_nodes=total_nodes, plane="sharded",
                          shards=shards)
    if paradigm == "blockchain":
        params = replace(BITCOIN, target_block_interval_s=15.0,
                         max_block_size_bytes=8_000, confirmation_depth=2)
        deployment = build_deployment(
            "blockchain", chain_params=params, node_count=4,
            seed=seed, topology_scale=scale)
    elif paradigm == "dag":
        deployment = build_deployment(
            "dag", node_count=4, representative_count=2, seed=seed,
            topology_scale=scale)
    else:
        raise ValueError(f"paradigm {paradigm!r} has no sharded tier")
    deployment.setup(8, 10**9)
    injector = OpenLoopInjector.from_sim_stream(
        deployment.ledger, accounts=8, rate_tps=offered_tps,
        duration_s=duration_s)
    injector.start()
    deployment.ledger.advance(duration_s * 1.25)
    confirmed = deployment.ledger.stats().entries_confirmed
    point = {
        "paradigm": paradigm,
        "total_nodes": total_nodes,
        "offered": injector.report.offered,
        "confirmed": confirmed,
        "tps": confirmed / duration_s,
        "plane_fingerprint": deployment.network.plane_fingerprint(),
    }
    point.update(deployment.scale_stats())
    return point


def test_a10_tps_curves_span_two_decades(benchmark):
    """Settled TPS for both paradigms from 10^2 to 10^4 total nodes:
    the DAG stays above the protocol-capped chain at every population,
    and propagation stretches as the modeled population deepens."""
    def build_curves():
        return {
            paradigm: [
                measure_scale_point(paradigm, n, seed=1, duration_s=90.0,
                                    offered_tps=rate)
                for n in SCALES
            ]
            for paradigm, rate in (("blockchain", 2.0), ("dag", 8.0))
        }

    curves = benchmark.pedantic(build_curves, rounds=1, iterations=1)
    rows = []
    for paradigm, points in curves.items():
        for point in points:
            rows.append([
                paradigm, point["total_nodes"], f"{point['tps']:.2f}",
                f"{point['propagation_max_s'] * 1000:.0f} ms",
                f"{point['modeled_deliveries']:.0f}",
            ])
            assert point["tps"] > 0
            assert point["modeled_nodes"] == \
                point["total_nodes"] - point["boundary_nodes"]
    for chain, dag in zip(curves["blockchain"], curves["dag"]):
        assert dag["tps"] > chain["tps"]
    # Deeper populations mean more mean-field hops, never fewer.
    for points in curves.values():
        assert points[-1]["propagation_max_s"] > \
            points[0]["propagation_max_s"]
    report(
        "A10a TPS and propagation vs total population (aggregate tier)",
        render_table(
            ["paradigm", "nodes", "TPS", "flood max", "modeled deliveries"],
            rows),
    )


def test_a10_sharded_flood_covers_ten_thousand_nodes(benchmark):
    point = benchmark.pedantic(
        lambda: sharded_point(10_000, 8, seed=5), rounds=1, iterations=1)
    assert point["reached"] == 10_000
    assert point["epochs"] >= 1
    assert point["cross_shard_messages"] > 0
    assert 0 < point["p50_s"] <= point["p95_s"]
    # Same seed, same arrival vector — regardless of wall-clock details.
    again = sharded_point(10_000, 8, seed=5)
    assert again["fingerprint"] == point["fingerprint"]
    other = sharded_point(10_000, 8, seed=6)
    assert other["fingerprint"] != point["fingerprint"]
    rows = [
        ["nodes reached", f"{point['reached']}/{point['total_nodes']}"],
        ["epochs", point["epochs"]],
        ["cross-shard messages", point["cross_shard_messages"]],
        ["flood p50 / p95", f"{point['p50_s']:.3f} s / "
                            f"{point['p95_s']:.3f} s"],
        ["fingerprint", point["fingerprint"]],
    ]
    report("A10b sharded flood at 10^4 nodes (epoch barriers)",
           render_table(["metric", "value"], rows))


#: Seed-2 plane fingerprints of A10c's 2*10^3-node traffic points,
#: captured on the commit before the shard worker processes were deleted.
A10C_PLANE_FINGERPRINTS = {"blockchain": "3d9e8f28eb9fb6cf",
                           "dag": "b20de4543fb3d578"}


def test_a10_sharded_plane_carries_protocol_traffic(benchmark):
    """Full tx/block gossip over a 2*10^3-node sharded crowd: both
    paradigms confirm entries while every broadcast is propagated across
    the whole population, and each plane fingerprint equals its
    captured golden byte-for-byte."""
    def build_points():
        return {p: sharded_traffic_point(p, 2_000, seed=2, duration_s=30.0)
                for p in ("blockchain", "dag")}

    points = benchmark.pedantic(build_points, rounds=1, iterations=1)
    rows = []
    for paradigm, point in points.items():
        assert point["confirmed"] > 0
        assert point["messages_modeled"] > 0
        assert point["scaled"] == 1.0
        assert point["modeled_nodes"] == 2_000 - point["boundary_nodes"]
        assert point["plane_fingerprint"] == \
            A10C_PLANE_FINGERPRINTS[paradigm]
        rows.append([
            paradigm, point["total_nodes"], f"{point['tps']:.2f}",
            f"{point['messages_modeled']:.0f}",
            f"{point['propagation_max_s'] * 1000:.0f} ms",
            point["plane_fingerprint"],
        ])
    report(
        "A10c full protocol traffic on the sharded plane "
        "(fingerprints == golden)",
        render_table(
            ["paradigm", "nodes", "TPS", "messages", "flood max",
             "plane fingerprint"], rows),
    )


def test_a10_run_fingerprint_is_seed_stable():
    """The registry entry point is deterministic: same params + seed
    reproduce the same fingerprint metric; a different seed does not."""
    params = {"scales": (100,), "duration_s": 30.0,
              "sharded_nodes": 1_000, "sharded_shards": 4,
              "traffic_nodes": 500, "traffic_duration_s": 15.0}
    first = run(params, 3)
    second = run(params, 3)
    third = run(params, 4)
    assert first["metrics"]["fingerprint"] == \
        second["metrics"]["fingerprint"]
    assert first["metrics"]["fingerprint"] != \
        third["metrics"]["fingerprint"]


def run(params: dict, seed: int) -> dict:
    """Uniform sweep entry point (see repro.runner.spec)."""
    started = time.perf_counter()
    p = {**dict(EXPERIMENTS["A10"].default_params), **(params or {})}
    total = int(p["total_nodes"])
    scales = (total,) if total else tuple(int(s) for s in p["scales"])
    sharded_nodes = total or int(p["sharded_nodes"])

    digest = hashlib.sha256()
    metrics = {}
    rates = {"blockchain": p["blockchain_tps"], "dag": p["dag_tps"]}
    for paradigm, rate in rates.items():
        for n in scales:
            point = measure_scale_point(
                paradigm, n, seed, duration_s=p["duration_s"],
                offered_tps=rate)
            metrics[f"{paradigm}_tps_{n}"] = point["tps"]
            metrics[f"{paradigm}_prop_max_s_{n}"] = \
                point["propagation_max_s"]
            digest.update(
                f"{paradigm}:{n}:{point['confirmed']}:"
                f"{point['modeled_deliveries']:.0f}:"
                f"{point['propagation_max_s']:.9f}".encode())
    sharded = sharded_point(sharded_nodes, int(p["sharded_shards"]), seed)
    metrics["sharded_reached"] = sharded["reached"]
    metrics["sharded_epochs"] = sharded["epochs"]
    metrics["sharded_cross_shard_messages"] = \
        sharded["cross_shard_messages"]
    metrics["sharded_p50_s"] = sharded["p50_s"]
    metrics["sharded_p95_s"] = sharded["p95_s"]
    metrics["sharded_nodes_per_s"] = sharded["nodes_per_s"]
    digest.update(sharded["fingerprint"].encode())
    # Full protocol traffic over the sharded plane (--topology-scale N
    # drives this tier to N as well; traffic_nodes=0 skips it).
    traffic_nodes = total or int(p["traffic_nodes"])
    if traffic_nodes:
        for paradigm, rate in rates.items():
            point = sharded_traffic_point(
                paradigm, traffic_nodes, seed,
                shards=int(p["sharded_shards"]),
                duration_s=p["traffic_duration_s"], offered_tps=rate)
            metrics[f"{paradigm}_traffic_tps"] = point["tps"]
            metrics[f"{paradigm}_traffic_messages"] = \
                point["messages_modeled"]
            metrics[f"{paradigm}_traffic_prop_max_s"] = \
                point["propagation_max_s"]
            digest.update(f"{paradigm}:traffic:"
                          f"{point['plane_fingerprint']}".encode())
    metrics["fingerprint"] = float(int(digest.hexdigest()[:12], 16))
    return make_result("A10", p, seed, metrics, started=started)


if __name__ == "__main__":
    from conftest import bench_main

    bench_main(run)
