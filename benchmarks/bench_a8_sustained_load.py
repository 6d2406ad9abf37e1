"""A8 (extension of §IV, §V, §VI): sustained-service SLOs.

The paper reports *unloaded* confirmation latencies (§IV) and a static
ledger-growth picture (§V).  This bench measures the steady-state
versions: open-loop Poisson traffic swept across offered loads gives a
p50/p99 confirmation-latency curve with a saturation knee per paradigm
(PoW blockchain vs Nano lattice), and a long soak with periodic live
pruning shows bounded ledger size where the unpruned control grows
linearly.
"""

import time
from dataclasses import replace

from conftest import report

from repro.core.experiment import EXPERIMENTS
from repro.runner import make_result

from repro.blockchain.mempool import MempoolLimits
from repro.blockchain.params import BITCOIN
from repro.core.deploy import build_deployment
from repro.metrics.slo import detect_saturation_knee, load_point
from repro.metrics.tables import render_table
from repro.net.link import FAST_LINK
from repro.workloads.open_loop import OpenLoopInjector

#: Per-account funding: deep enough that backpressure, not bankruptcy,
#: is what rejects traffic.
FUNDING = 10**9


def _mini_chain_params():
    # A miniature Bitcoin: 15 s blocks, 4 KB caps ⇒ ~1 TPS ceiling, so
    # small offered-load sweeps straddle the knee quickly.
    return replace(
        BITCOIN, target_block_interval_s=15.0, max_block_size_bytes=4_000,
        confirmation_depth=2,
    )


def _blockchain_deployment(seed, limits=None, prune_interval_s=None,
                           keep_depth=8, topology_scale=None):
    return build_deployment(
        "blockchain",
        chain_params=_mini_chain_params(),
        node_count=3,
        link_params=FAST_LINK,
        seed=seed,
        mempool_limits=limits,
        prune_interval_s=prune_interval_s,
        prune_keep_depth=keep_depth,
        topology_scale=topology_scale,
    )


def _dag_deployment(seed, processing_tps, prune_interval_s=None,
                    topology_scale=None):
    return build_deployment(
        "dag",
        node_count=6,
        representative_count=3,
        seed=seed,
        processing_tps=processing_tps,
        prune_interval_s=prune_interval_s,
        topology_scale=topology_scale,
    )


def measure_load(ledger, accounts, offered_tps, duration_s, settle_s):
    """One load point: open-loop traffic, then a settle window."""
    ledger.setup(accounts, FUNDING)
    injector = OpenLoopInjector.from_sim_stream(
        ledger, accounts=accounts, rate_tps=offered_tps, duration_s=duration_s
    )
    injector.start()
    ledger.advance(duration_s + settle_s)
    stats = ledger.stats()
    return load_point(
        offered_tps,
        stats.confirmation_latencies_s,
        injector.report.submitted,
        duration_s,
        rejected=injector.report.rejected,
    )


def sweep(paradigm, loads, p, seed):
    """Fresh deployment per load level (levels are independent trials)."""
    points = []
    for offered in loads:
        if paradigm == "blockchain":
            ledger = _blockchain_deployment(seed).ledger
        else:
            ledger = _dag_deployment(
                seed, processing_tps=p["dag_processing_tps"]).ledger
        points.append(
            measure_load(ledger, p["accounts"], float(offered),
                         p["duration_s"], p["settle_s"])
        )
    return points


def scale_curve(paradigm, p, seed):
    """Loaded latency vs modeled population: the same offered load is
    replayed while ``topology_scale`` walks 10^2 -> 10^5 total nodes on
    the aggregate plane.  Returns one ``(total_nodes, LoadPoint,
    scale_stats)`` triple per decade."""
    rate = float(p["scale_blockchain_tps"] if paradigm == "blockchain"
                 else p["scale_dag_tps"])
    points = []
    for total in p["topology_scales"]:
        total = int(total)
        if paradigm == "blockchain":
            deployment = _blockchain_deployment(seed, topology_scale=total)
        else:
            deployment = _dag_deployment(
                seed, processing_tps=p["dag_processing_tps"],
                topology_scale=total)
        deployment.setup(p["accounts"], FUNDING)
        ledger = deployment.ledger
        injector = OpenLoopInjector.from_sim_stream(
            ledger, accounts=p["accounts"], rate_tps=rate,
            duration_s=p["scale_duration_s"])
        injector.start()
        ledger.advance(p["scale_duration_s"] + p["scale_settle_s"])
        stats = ledger.stats()
        point = load_point(rate, stats.confirmation_latencies_s,
                           injector.report.submitted, p["scale_duration_s"],
                           rejected=injector.report.rejected)
        points.append((total, point, deployment.scale_stats()))
    return points


def soak(p, seed, pruned):
    """Sustained load with (or without) periodic live pruning.

    Returns the sampled ``(time, ledger bytes)`` series, the run stats,
    and the injector report.
    """
    interval = p["soak_prune_interval_s"]
    ledger = _blockchain_deployment(
        seed,
        limits=MempoolLimits(max_count=400),
        prune_interval_s=interval if pruned else None,
        keep_depth=p["soak_keep_depth"],
    ).ledger
    ledger.setup(p["accounts"], FUNDING)
    series = []
    ledger.simulator.schedule_periodic(
        interval,
        lambda: series.append((ledger.now(), ledger.serialized_size())),
        until=p["soak_duration_s"],
    )
    injector = OpenLoopInjector.from_sim_stream(
        ledger, accounts=p["accounts"], rate_tps=p["soak_rate_tps"],
        duration_s=p["soak_duration_s"],
    )
    injector.start()
    ledger.advance(p["soak_duration_s"])
    return series, ledger.stats(), injector.report


def run(params: dict, seed: int) -> dict:
    """Uniform sweep entry point (see repro.runner.spec)."""
    started = time.perf_counter()
    p = {**dict(EXPERIMENTS["A8"].default_params), **(params or {})}

    bc_points = sweep("blockchain", p["blockchain_loads"], p, seed)
    dag_points = sweep("dag", p["dag_loads"], p, seed)
    bc_knee = detect_saturation_knee(bc_points)
    dag_knee = detect_saturation_knee(dag_points)

    pruned_series, pruned_stats, pruned_report = soak(p, seed, pruned=True)
    control_series, _, _ = soak(p, seed, pruned=False)

    scale_metrics = {}
    for paradigm in ("blockchain", "dag"):
        short = "bc" if paradigm == "blockchain" else "dag"
        for total, point, stats in scale_curve(paradigm, p, seed):
            tag = f"{short}_scale{total}"
            scale_metrics[f"{tag}_achieved_tps"] = point.achieved_tps
            scale_metrics[f"{tag}_p50_s"] = point.p50_s
            scale_metrics[f"{tag}_p99_s"] = point.p99_s
            scale_metrics[f"{tag}_prop_max_s"] = stats["propagation_max_s"]
            scale_metrics[f"{tag}_modeled_nodes"] = stats["modeled_nodes"]

    metrics = {
        "blockchain_knee_tps": float(bc_knee) if bc_knee is not None else -1.0,
        "dag_knee_tps": float(dag_knee) if dag_knee is not None else -1.0,
        "soak_confirmed": float(pruned_stats.entries_confirmed),
        "soak_offered": float(pruned_report.offered),
        "soak_backpressure_fraction": pruned_report.backpressure_fraction,
        "soak_pruned_final_bytes": float(pruned_series[-1][1]),
        "soak_unpruned_final_bytes": float(control_series[-1][1]),
        "soak_growth_ratio": (
            control_series[-1][1] / max(pruned_series[-1][1], 1)
        ),
        "soak_mempool_dropped": pruned_stats.extra.get("mempool.dropped", 0.0),
        "soak_mempool_rejected_full": pruned_stats.extra.get(
            "mempool.rejected_full", 0.0
        ),
    }
    for point in bc_points:
        metrics.update(point.as_metrics("bc"))
    for point in dag_points:
        metrics.update(point.as_metrics("dag"))
    metrics.update(scale_metrics)
    return make_result("A8", p, seed, metrics, started=started)


def test_a8_sustained_service(benchmark):
    """Reduced-scale shape check: both paradigms expose a saturation
    knee, and the pruned soak stays bounded while the control grows."""
    p = {
        "accounts": 10,
        "duration_s": 150.0,
        "settle_s": 90.0,
        "blockchain_loads": (0.25, 2.0),
        "dag_loads": (2.0, 40.0),
        "dag_processing_tps": 10.0,
        "soak_duration_s": 400.0,
        "soak_rate_tps": 2.0,
        "soak_prune_interval_s": 50.0,
        "soak_keep_depth": 6,
        "topology_scales": (100, 10_000),
        "scale_duration_s": 60.0,
        "scale_settle_s": 60.0,
    }
    result = benchmark.pedantic(run, args=(p, 3), rounds=1, iterations=1)
    m = result["metrics"]
    assert m["blockchain_knee_tps"] > 0
    assert m["dag_knee_tps"] > 0
    assert m["soak_confirmed"] > 0
    # Pruned replica stays well under the linearly growing control.
    assert m["soak_growth_ratio"] > 1.5
    # The loaded-latency curve stays live as the modeled population
    # deepens two decades, and the gossip tail stretches with it.
    for short in ("bc", "dag"):
        assert m[f"{short}_scale10000_achieved_tps"] > 0
        assert m[f"{short}_scale10000_prop_max_s"] > \
            m[f"{short}_scale100_prop_max_s"]

    rows = []
    for load in p["blockchain_loads"]:
        tag = f"bc_{load:g}tps"
        rows.append([f"blockchain @ {load:g} TPS",
                     f"{m[tag + '_achieved_tps']:.3f}",
                     f"{m[tag + '_p50_s']:.1f}", f"{m[tag + '_p99_s']:.1f}"])
    for load in p["dag_loads"]:
        tag = f"dag_{load:g}tps"
        rows.append([f"dag @ {load:g} TPS",
                     f"{m[tag + '_achieved_tps']:.3f}",
                     f"{m[tag + '_p50_s']:.1f}", f"{m[tag + '_p99_s']:.1f}"])
    for short, label in (("bc", "blockchain"), ("dag", "dag")):
        for total in p["topology_scales"]:
            tag = f"{short}_scale{total}"
            rows.append([f"{label} @ {total} nodes (scaled)",
                         f"{m[tag + '_achieved_tps']:.3f}",
                         f"{m[tag + '_p50_s']:.1f}",
                         f"{m[tag + '_p99_s']:.1f}"])
    rows.append(["blockchain knee", f"{m['blockchain_knee_tps']:g} TPS", "", ""])
    rows.append(["dag knee", f"{m['dag_knee_tps']:g} TPS", "", ""])
    rows.append(["soak pruned / control bytes",
                 f"{m['soak_pruned_final_bytes']:.0f} / "
                 f"{m['soak_unpruned_final_bytes']:.0f}", "", ""])
    report(
        "A8 sustained-service SLOs (open-loop load + bounded-memory soak)",
        render_table(["run", "achieved TPS", "p50 s", "p99 s"], rows),
    )


if __name__ == "__main__":
    from conftest import bench_main

    bench_main(run)
