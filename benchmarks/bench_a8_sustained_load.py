"""A8 (extension of §IV, §V, §VI): sustained-service SLOs.

The paper reports *unloaded* confirmation latencies (§IV) and a static
ledger-growth picture (§V).  This bench measures the steady-state
versions: open-loop Poisson traffic swept across offered loads gives a
p50/p99 confirmation-latency curve with a saturation knee per paradigm
(PoW blockchain vs Nano lattice), and a long soak with periodic live
pruning shows, on both paradigms, bounded ledger size where the
unpruned control grows linearly.
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
                           keep_depth=8):
    return build_deployment(
        "blockchain",
        chain_params=_mini_chain_params(),
        node_count=3,
        link_params=FAST_LINK,
        seed=seed,
        mempool_limits=limits,
        prune_interval_s=prune_interval_s,
        prune_keep_depth=keep_depth,
    )


def _dag_deployment(seed, processing_tps, prune_interval_s=None):
    return build_deployment(
        "dag",
        node_count=6,
        representative_count=3,
        seed=seed,
        processing_tps=processing_tps,
        prune_interval_s=prune_interval_s,
    )


def open_loop(deployment, accounts, rate_tps, duration_s, settle_s=0.0,
              sample_every_s=None):
    """Fund ``accounts``, offer Poisson traffic at ``rate_tps`` for
    ``duration_s``, then run ``settle_s`` more.

    With ``sample_every_s``, ledger bytes are sampled on that cadence
    from the start of traffic, and once more when the run ends.  Returns
    the run stats, the injector report and the ``(time, ledger bytes)``
    series.
    """
    deployment.setup(accounts, FUNDING)
    ledger = deployment.ledger
    run_s = duration_s + settle_s
    series = []

    def sample():
        series.append((ledger.now(), ledger.serialized_size()))

    if sample_every_s is not None:
        # Armed before the injector: a sample and a tick due at the
        # same instant fire in that order.
        ledger.simulator.schedule_periodic(
            sample_every_s, sample, until=ledger.now() + run_s)
    injector = OpenLoopInjector.from_sim_stream(
        ledger, accounts=accounts, rate_tps=rate_tps, duration_s=duration_s
    )
    injector.start()
    ledger.advance(run_s)
    if sample_every_s is not None:
        if series and series[-1][0] == ledger.now():
            series.pop()  # superseded by the end-of-run sample
        sample()
    return ledger.stats(), injector.report, series


def measure_load(deployment, accounts, offered_tps, duration_s, settle_s):
    """One load point: open-loop traffic, then a settle window."""
    stats, injector_report, _ = open_loop(
        deployment, accounts, offered_tps, duration_s, settle_s)
    return load_point(
        offered_tps,
        stats.confirmation_latencies_s,
        injector_report.submitted,
        duration_s,
        rejected=injector_report.rejected,
    )


def sweep(paradigm, loads, p, seed):
    """Fresh deployment per load level (levels are independent trials)."""
    points = []
    for offered in loads:
        if paradigm == "blockchain":
            deployment = _blockchain_deployment(seed)
        else:
            deployment = _dag_deployment(
                seed, processing_tps=p["dag_processing_tps"])
        points.append(
            measure_load(deployment, p["accounts"], float(offered),
                         p["duration_s"], p["settle_s"])
        )
    return points


def soak(paradigm, p, seed, pruned):
    """Sustained load with (or without) periodic live pruning.

    Returns the sampled ``(time, ledger bytes)`` series, the run stats,
    and the injector report.  ``soak_keep_depth`` and the mempool cap
    apply to the chain only: the lattice has no mempool, and its pruning
    keeps just each account's head and the unsettled sends.
    """
    interval = p["soak_prune_interval_s"]
    prune_interval_s = interval if pruned else None
    if paradigm == "blockchain":
        deployment = _blockchain_deployment(
            seed,
            limits=MempoolLimits(max_count=400),
            prune_interval_s=prune_interval_s,
            keep_depth=p["soak_keep_depth"],
        )
    else:
        deployment = _dag_deployment(
            seed, processing_tps=p["dag_processing_tps"],
            prune_interval_s=prune_interval_s)
    stats, injector_report, series = open_loop(
        deployment, p["accounts"], p["soak_rate_tps"], p["soak_duration_s"],
        sample_every_s=interval)
    return series, stats, injector_report


def run(params: dict, seed: int) -> dict:
    """Uniform sweep entry point (see repro.runner.spec)."""
    started = time.perf_counter()
    p = {**dict(EXPERIMENTS["A8"].default_params), **(params or {})}

    bc_points = sweep("blockchain", p["blockchain_loads"], p, seed)
    dag_points = sweep("dag", p["dag_loads"], p, seed)
    bc_knee = detect_saturation_knee(bc_points)
    dag_knee = detect_saturation_knee(dag_points)
    metrics = {
        "blockchain_knee_tps": float(bc_knee) if bc_knee is not None else -1.0,
        "dag_knee_tps": float(dag_knee) if dag_knee is not None else -1.0,
    }

    for paradigm, prefix in (("blockchain", "soak"), ("dag", "dag_soak")):
        pruned_series, stats, injector_report = soak(
            paradigm, p, seed, pruned=True)
        control_series, _, _ = soak(paradigm, p, seed, pruned=False)
        pruned_bytes = pruned_series[-1][1]
        control_bytes = control_series[-1][1]
        metrics[f"{prefix}_confirmed"] = float(stats.entries_confirmed)
        metrics[f"{prefix}_offered"] = float(injector_report.offered)
        metrics[f"{prefix}_pruned_final_bytes"] = float(pruned_bytes)
        metrics[f"{prefix}_unpruned_final_bytes"] = float(control_bytes)
        metrics[f"{prefix}_growth_ratio"] = control_bytes / max(
            pruned_bytes, 1)
        if paradigm == "blockchain":
            metrics["soak_backpressure_fraction"] = (
                injector_report.backpressure_fraction)
            metrics["soak_mempool_dropped"] = stats.extra.get(
                "mempool.dropped", 0.0)
            metrics["soak_mempool_rejected_full"] = stats.extra.get(
                "mempool.rejected_full", 0.0)

    for point in bc_points:
        metrics.update(point.as_metrics("bc"))
    for point in dag_points:
        metrics.update(point.as_metrics("dag"))

    return make_result("A8", p, seed, metrics, started=started)


def test_a8_sustained_service(benchmark):
    """Reduced-scale shape check: both paradigms expose a saturation
    knee, and on both the pruned soak stays bounded while the control
    grows."""
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
    }
    result = benchmark.pedantic(run, args=(p, 3), rounds=1, iterations=1)
    m = result["metrics"]
    assert m["blockchain_knee_tps"] > 0
    assert m["dag_knee_tps"] > 0
    for prefix in ("soak", "dag_soak"):
        assert m[f"{prefix}_confirmed"] > 0
        # Pruned replica stays well under the linearly growing control.
        assert m[f"{prefix}_growth_ratio"] > 1.5

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
    rows.append(["blockchain knee", f"{m['blockchain_knee_tps']:g} TPS", "", ""])
    rows.append(["dag knee", f"{m['dag_knee_tps']:g} TPS", "", ""])
    for prefix, label in (("soak", "blockchain"), ("dag_soak", "dag")):
        rows.append([f"{label} soak pruned / control bytes",
                     f"{m[prefix + '_pruned_final_bytes']:.0f} / "
                     f"{m[prefix + '_unpruned_final_bytes']:.0f}", "", ""])
    report(
        "A8 sustained-service SLOs (open-loop load + bounded-memory soak)",
        render_table(["run", "achieved TPS", "p50 s", "p99 s"], rows),
    )


def test_a8_soak_samples_until_the_run_ends():
    """The soak series runs from one prune interval into the traffic to
    its end, even when the soak is shorter than one interval or setup
    has already advanced the clock (the lattice funds its accounts)."""
    p = {**dict(EXPERIMENTS["A8"].default_params), "accounts": 4,
         "soak_rate_tps": 1.0, "soak_prune_interval_s": 60.0}
    for paradigm in ("blockchain", "dag"):
        series, _, _ = soak(
            paradigm, {**p, "soak_duration_s": 30.0}, 1, pruned=True)
        assert len(series) == 1
        series, _, _ = soak(
            paradigm, {**p, "soak_duration_s": 130.0}, 1, pruned=True)
        times = [t for t, _ in series]
        assert times[1] - times[0] == 60.0
        assert times[-1] - times[0] == 130.0 - 60.0


if __name__ == "__main__":
    from conftest import bench_main

    bench_main(run)
