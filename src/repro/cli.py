"""Command-line interface.

``python -m repro <command>`` exposes the headline experiments without
writing any code:

* ``list``          — the experiment registry (paper ref → bench file);
* ``compare``       — run the blockchain-vs-DAG comparison on a workload;
* ``fuzz``          — differential fuzzing with in-loop invariant
  enforcement across both paradigms (see ``repro.check``);
* ``report``        — the analytic paper tables (§§ IV-A, V, VI-A) as
  markdown;
* ``bench``         — one experiment, one trial, in process; e.g.
  ``bench A7`` is the degraded-network gossip run (partition + churn);
* ``sweep``         — parameter-grid fan-out across worker processes,
  aggregated into ``BENCH_<id>.json`` (see ``repro.runner``);
  ``sweep -e A7 --param capture_trace=1 --trace-dir DIR`` writes each
  trial's JSONL trace;
* ``perf``          — hot-path microbenchmark suite, written to
  ``BENCH_PERF.json`` (see ``docs/performance.md``);
* ``profile``       — one microbenchmark under cProfile, top-N hotspots.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional

from repro.common.units import format_bytes
from repro.core.experiment import EXPERIMENTS
from repro.metrics.tables import render_table

#: The normalized ``--paradigm`` spelling every deployment-shaped
#: subcommand (fuzz/sweep/perf) shares: ``both`` is the paper's
#: differential pair, ``all`` adds the BFT engine.
_PARADIGM_CHOICES = ("all", "both", "blockchain", "dag", "bft")

#: Module prefixes that tag an experiment as paradigm-specific for
#: ``sweep --paradigm``; experiments matching none are cross-cutting
#: and excluded whenever a single-paradigm filter is active.
_SWEEP_MODULE_PREFIXES = {
    "blockchain": ("repro.blockchain", "repro.crypto.pow"),
    "dag": ("repro.dag",),
    "bft": ("repro.consensus",),
}


def _selection_parent() -> argparse.ArgumentParser:
    """The shared ``--paradigm`` option block.

    Built once per subcommand as an argparse *parent parser* so every
    deployment-shaped command accepts the same spelling (no copy-pasted
    option blocks drifting apart)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--paradigm", choices=_PARADIGM_CHOICES,
                        help="paradigm selection (both = blockchain+dag, "
                             "all = +bft)")
    return parent


def _resolve_paradigms(selection: Optional[str]) -> List[str]:
    from repro.check.runner import ALL_PARADIGMS, PARADIGMS

    if selection in (None, "both"):
        return list(PARADIGMS)
    if selection == "all":
        return list(ALL_PARADIGMS)
    return [selection]


def _cmd_list(args: argparse.Namespace) -> int:
    rows = [
        [e.experiment_id, e.paper_ref, e.claim, e.bench]
        for e in EXPERIMENTS.values()
    ]
    print(render_table(["id", "paper", "claim", "bench"], rows,
                       title="Reproduced experiments"))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.blockchain.params import BITCOIN, ETHEREUM
    from repro.core.comparison import compare_ledgers
    from repro.core.deploy import build_deployment
    from repro.workloads.generators import PaymentWorkload

    base = ETHEREUM if args.chain == "ethereum" else BITCOIN
    params = replace(
        base,
        target_block_interval_s=args.block_interval,
        confirmation_depth=args.depth,
    )
    events = PaymentWorkload(
        accounts=args.accounts, rate_tps=args.rate, seed=args.seed
    ).generate(args.duration)
    print(f"running {len(events)} payments through both paradigms...",
          file=sys.stderr)
    try:
        ledgers = (
            build_deployment("blockchain", chain_params=params,
                             node_count=args.nodes, seed=args.seed).ledger,
            build_deployment("dag", node_count=args.nodes + 2,
                             representative_count=3, seed=args.seed).ledger,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    report = compare_ledgers(
        *ledgers,
        events,
        accounts=args.accounts,
        initial_balance=10_000_000,
        settle_s=args.block_interval * (args.depth + 3),
    )
    print(report.render())
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Differential fuzz campaign: seeded schedules replayed on both
    paradigms with in-loop invariant auditing (see ``repro.check``)."""
    from repro.check.generator import PROFILES, profile_named
    from repro.check.runner import run_campaign

    if args.profile not in PROFILES:
        print(f"error: unknown profile {args.profile!r} "
              f"(choose from {', '.join(sorted(PROFILES))})", file=sys.stderr)
        return 2
    overrides = {}
    if args.audit_interval is not None:
        overrides["audit_interval_s"] = args.audit_interval
    if args.topology_scale is not None:
        overrides["topology_scale"] = args.topology_scale
    try:
        profile = profile_named(args.profile, **overrides)
    except (KeyError, TypeError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    paradigms = _resolve_paradigms(args.paradigm)
    seeds = range(args.seed_start, args.seed_start + args.seeds)
    print(f"fuzzing {len(seeds)} seeds x {len(paradigms)} paradigm(s), "
          f"profile {profile.name} ({profile.describe()})", file=sys.stderr)

    try:
        outcomes = run_campaign(
            list(seeds), profile, paradigms,
            shrink=args.shrink,
            determinism_check=args.check_determinism,
            artifact_dir=args.artifact_dir,
            progress=lambda line: print(line, file=sys.stderr),
        )
    except AssertionError as error:
        print(f"REPLAY DIVERGENCE: {error}", file=sys.stderr)
        return 1

    failing = [o for o in outcomes if not o.ok]
    runs = sum(len(o.results) for o in outcomes)
    print(f"{runs} runs, {len(failing)}/{len(outcomes)} seeds with violations")
    for outcome in failing:
        for result in outcome.failing():
            print(f"  seed={outcome.seed} {result.paradigm}: "
                  + "; ".join(f"[{v.invariant}] {v.detail}"
                              for v in result.violation.violations))
    return 1 if failing else 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Generate a markdown results report from the fast experiments."""
    from repro.blockchain.params import BITCOIN
    from repro.common.units import MB
    from repro.confirmation.nakamoto import (
        attacker_success_probability,
        confirmations_for_confidence,
    )
    from repro.confirmation.orphan import expected_orphan_rate
    from repro.scaling.blocksize import blocksize_sweep
    from repro.scaling.sharding import ShardedLedger
    from repro.scaling.throughput import protocol_tps_table
    from repro.storage.growth import LEDGER_SNAPSHOT_2018, snapshot_ratios

    sections: List[str] = [
        "# Results report",
        "",
        "Generated by `python -m repro report` — analytic/fast experiments "
        "only; run `pytest benchmarks/ --benchmark-only -s` for the full "
        "simulation suite.",
    ]

    def add_table(title: str, headers, rows) -> None:
        sections.append(f"\n## {title}\n")
        sections.append("| " + " | ".join(headers) + " |")
        sections.append("|" + "|".join("---" for _ in headers) + "|")
        for row in rows:
            sections.append("| " + " | ".join(str(c) for c in row) + " |")

    table = protocol_tps_table()
    add_table(
        "Protocol throughput ceilings (§VI-A)",
        ["system", "max TPS"],
        [[k, f"{v:,.1f}"] for k, v in table.items()],
    )

    add_table(
        "Confirmation depth for <0.1% reversal risk (§IV-A)",
        ["attacker share", "confirmations", "residual risk"],
        [
            [f"{q:.0%}", confirmations_for_confidence(q, 0.001),
             f"{attacker_success_probability(q, confirmations_for_confidence(q, 0.001)):.1e}"]
            for q in (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40)
        ],
    )

    add_table(
        "Soft-fork rate vs block interval (5 s propagation, §IV-A)",
        ["interval", "orphan rate"],
        [
            [f"{i:.0f} s", f"{expected_orphan_rate(5.0, i):.3f}"]
            for i in (4.0, 15.0, 60.0, 600.0)
        ],
    )

    points = blocksize_sweep(BITCOIN, [1 * MB, 2 * MB, 8 * MB, 100 * MB, 4000 * MB])
    add_table(
        "Block-size sweep (§VI-A, Segwit2x = 2 MB)",
        ["size", "TPS", "consumer viable"],
        [
            [format_bytes(p.block_size_bytes), f"{p.tps:.1f}",
             "yes" if p.consumer_viable else "NO"]
            for p in points
        ],
    )

    add_table(
        "Sharding throughput (§VI-A)",
        ["K", "TPS local", "TPS random traffic"],
        [
            [k,
             f"{ShardedLedger(k, per_shard_tps=10.0).effective_tps(0.0):,.0f}",
             f"{ShardedLedger(k, per_shard_tps=10.0).effective_tps((k - 1) / k):,.0f}"]
            for k in (1, 4, 16, 64)
        ],
    )

    ratios = snapshot_ratios()
    add_table(
        "Ledger sizes at the paper's snapshot (§V)",
        ["ledger", "size", "date", "vs nano"],
        [
            [name, format_bytes(snap.size_bytes), snap.date,
             f"{ratios[name]:.1f}x"]
            for name, snap in LEDGER_SNAPSHOT_2018.items()
        ],
    )

    content = "\n".join(sections) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(content)
        print(f"report written to {args.output}")
    else:
        print(content)
    return 0


def _parse_param_value(text: str):
    """``--param`` values: int, then float, then bool, else string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def _parse_grid(pairs: List[str]):
    grid = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"--param expects key=v1[,v2,...], got {pair!r}")
        key, _, values = pair.partition("=")
        grid[key.strip()] = [
            _parse_param_value(v.strip()) for v in values.split(",") if v.strip()
        ]
    return grid


def _undeclared_params(keys, experiment_ids: List[str]) -> Optional[str]:
    """The error for ``--param`` keys that no selected experiment
    declares in its ``default_params``, or None when every key is
    declared by one."""
    declared = set().union(
        *(EXPERIMENTS[e].default_params for e in experiment_ids))
    unknown = sorted(set(keys) - declared)
    if not unknown:
        return None
    return (f"unknown parameter(s) {', '.join(unknown)} for "
            f"{', '.join(experiment_ids)} "
            f"(valid: {', '.join(sorted(declared)) or 'none'})")


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run one experiment once, in process, and print its metrics."""
    experiment = EXPERIMENTS.get(args.experiment_id)
    if experiment is None:
        print(f"error: unknown experiment {args.experiment_id!r} "
              f"(see `python -m repro list`)", file=sys.stderr)
        return 2
    try:
        grid = _parse_grid(args.param)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    overrides = {key: values[0] for key, values in grid.items()}
    error = _undeclared_params(overrides, [experiment.experiment_id])
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    runner = experiment.load_runner()
    try:
        result = runner(overrides, args.seed)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    rows = [["experiment", result["experiment_id"]],
            ["seed", result["seed"]],
            ["elapsed", f"{result['elapsed_s']:.3f} s"]]
    for key, value in sorted(result["params"].items()):
        rows.append([f"param: {key}", value])
    for key, value in sorted(result["metrics"].items()):
        rows.append([f"metric: {key}", value])
    print(render_table(["field", "value"], rows,
                       title=f"{experiment.experiment_id}: {experiment.claim}"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Expand a parameter grid and fan trials out across processes."""
    import os

    from repro.runner import (
        ResultCache,
        build_spec,
        render_summary,
        run_trials,
        write_bench_json,
    )

    selector = args.paradigm
    if args.all or selector not in (None, "all", "both"):
        experiment_ids = list(EXPERIMENTS)
    elif args.experiment:
        experiment_ids = list(args.experiment)
    else:
        print("error: pass --experiment ID (repeatable), --all, or a "
              "--paradigm filter", file=sys.stderr)
        return 2
    unknown = [e for e in experiment_ids if e not in EXPERIMENTS]
    if unknown:
        print(f"error: unknown experiments: {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    if selector not in (None, "all", "both"):
        prefixes = _SWEEP_MODULE_PREFIXES[selector]
        filtered = [
            e for e in experiment_ids
            if any(m == p or m.startswith(p + ".")
                   for m in EXPERIMENTS[e].modules for p in prefixes)
        ]
        if args.experiment:
            filtered = [e for e in filtered if e in args.experiment]
        if not filtered:
            print(f"error: no experiments match paradigm {selector!r}",
                  file=sys.stderr)
            return 2
        experiment_ids = filtered
    try:
        grid = _parse_grid(args.param)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    error = _undeclared_params(grid, experiment_ids)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.seeds:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    else:
        seeds = list(range(args.trials))
    jobs = args.jobs or os.cpu_count() or 1

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or os.path.join(args.out_dir, "cache"))

    failures = 0
    for experiment_id in experiment_ids:
        declared = EXPERIMENTS[experiment_id].default_params
        axes = {key: values for key, values in grid.items() if key in declared}
        spec = build_spec(experiment_id, axes, seeds=seeds)
        trials = spec.expand()
        print(f"[{experiment_id}] {len(trials)} trials "
              f"({len(spec.points())} grid points x {len(seeds)} seeds), "
              f"jobs={jobs}", file=sys.stderr)

        def progress(outcome, done, total):
            marker = "cache" if outcome.cached else outcome.status.lower()
            print(f"[{experiment_id}] {done}/{total} {outcome.trial.key} "
                  f"({marker}, {outcome.elapsed_s:.2f}s)", file=sys.stderr)

        outcomes = run_trials(
            trials, jobs=jobs, timeout_s=args.timeout, retries=args.retries,
            cache=cache, trace_dir=args.trace_dir, progress=progress,
        )
        cache_stats = cache.stats() if cache else None
        path = write_bench_json(spec, outcomes, args.out_dir,
                                cache_stats=cache_stats)
        print(render_summary(spec, outcomes))
        print(f"wrote {path}", file=sys.stderr)
        failures += sum(1 for o in outcomes if not o.ok)
    return 1 if failures else 0


def _cmd_perf(args: argparse.Namespace) -> int:
    """Run the hot-path microbenchmark suite and write BENCH_PERF.json."""
    import json
    import os

    from repro.perf import (
        build_report,
        calibration_score,
        check_regressions,
        render_results,
        run_suite,
    )

    def progress(result) -> None:
        print(f"  {result.name}: {result.ops_per_s:,.1f} ops/s "
              f"({result.wall_s:.3f} s)", file=sys.stderr)

    selector = args.paradigm
    names = list(args.bench) or None
    if selector not in (None, "all", "both"):
        from repro.perf.suite import BENCHES
        tagged = [n for n, b in BENCHES.items() if selector in b.paradigms]
        if not tagged:
            print(f"error: no perf benches are tagged {selector!r}",
                  file=sys.stderr)
            return 2
        names = [n for n in (names or tagged) if n in tagged]
        if not names:
            print(f"error: none of the requested benches belong to "
                  f"paradigm {selector!r}", file=sys.stderr)
            return 2

    try:
        results = run_suite(names, scale=args.scale,
                            progress=progress)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    calibration = calibration_score()

    reference = None
    if args.reference and os.path.exists(args.reference):
        with open(args.reference) as handle:
            reference = json.load(handle)
    report = build_report(results, calibration, scale=args.scale,
                          reference=reference)

    print(render_results(results))
    speedups = report.get("speedup_vs_reference_normalized") or {}
    if speedups:
        print("\nspeedup vs reference (calibration-normalized):")
        for name, factor in sorted(speedups.items()):
            print(f"  {name:<22} {factor:.2f}x")

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}", file=sys.stderr)

    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        failures = check_regressions(report, baseline,
                                     tolerance=args.tolerance)
        if failures:
            print("performance regression gate FAILED:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"regression gate passed (tolerance -{args.tolerance:.0%} "
              f"vs {args.check})", file=sys.stderr)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run one microbenchmark under cProfile and print the hotspots."""
    from repro.perf.profiling import profile_bench
    from repro.perf.suite import BENCHES

    if args.bench not in BENCHES:
        print(f"error: unknown bench {args.bench!r} "
              f"(choose from {', '.join(sorted(BENCHES))})", file=sys.stderr)
        return 2
    try:
        table, wall = profile_bench(args.bench, scale=args.scale,
                                    top=args.top, sort=args.sort)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(table, end="")
    print(f"bench {args.bench} wall clock: {wall:.3f} s", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Blockchain vs DAG distributed-ledger comparison framework",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the experiment registry").set_defaults(
        func=_cmd_list
    )

    compare = sub.add_parser("compare", help="run the paradigm comparison")
    compare.add_argument("--chain", choices=("bitcoin", "ethereum"),
                         default="bitcoin",
                         help="blockchain reference implementation to compare")
    compare.add_argument("--accounts", type=int, default=6)
    compare.add_argument("--rate", type=float, default=0.05,
                         help="payment rate (TPS)")
    compare.add_argument("--duration", type=float, default=400.0,
                         help="workload duration (simulated s)")
    compare.add_argument("--nodes", type=int, default=4)
    compare.add_argument("--block-interval", type=float, default=20.0)
    compare.add_argument("--depth", type=int, default=3,
                         help="blockchain confirmation depth")
    compare.add_argument("--seed", type=int, default=1)
    compare.set_defaults(func=_cmd_compare)

    fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing with in-loop invariant audits",
        parents=[_selection_parent()],
    )
    fuzz.add_argument("--profile", default="baseline",
                      help="scenario family: baseline, conflict, churn, "
                           "adversarial, seeded-violation, soak, byzantine, "
                           "byzantine-violation")
    fuzz.add_argument("--seeds", type=int, default=10,
                      help="number of seeds in the campaign")
    fuzz.add_argument("--seed-start", type=int, default=0,
                      help="first seed (campaign covers start..start+seeds-1)")
    fuzz.add_argument("--audit-interval", type=float, default=None,
                      help="in-loop audit cadence (simulated s)")
    fuzz.add_argument("--shrink", action="store_true",
                      help="minimize failing schedules before reporting")
    fuzz.add_argument("--check-determinism", action="store_true",
                      help="replay every seed twice; fail on fingerprint "
                           "divergence")
    fuzz.add_argument("--artifact-dir", default=None,
                      help="write failing-seed JSON artifacts here")
    fuzz.add_argument("--topology-scale", type=int, default=None,
                      metavar="N",
                      help="total node population per deployment; the "
                           "surplus beyond the replicas rides the "
                           "aggregate plane")
    fuzz.set_defaults(func=_cmd_fuzz)

    report = sub.add_parser("report", help="generate a markdown results report")
    report.add_argument("--output", "-o", default=None,
                        help="write to a file instead of stdout")
    report.set_defaults(func=_cmd_report)

    bench = sub.add_parser(
        "bench", help="run one experiment once via its uniform run() API"
    )
    bench.add_argument("experiment_id", help="registry id, e.g. E15")
    bench.add_argument("--param", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a default parameter (repeatable)")
    bench.add_argument("--seed", type=int, default=0)
    bench.set_defaults(func=_cmd_bench)

    sweep = sub.add_parser(
        "sweep", help="parameter-grid fan-out across worker processes",
        parents=[_selection_parent()],
    )
    sweep.add_argument("--experiment", "-e", action="append", default=[],
                       help="experiment id (repeatable)")
    sweep.add_argument("--all", action="store_true",
                       help="sweep every registered experiment")
    sweep.add_argument("--param", action="append", default=[],
                       metavar="KEY=V1[,V2,...]",
                       help="grid axis: comma-separated values (repeatable)")
    sweep.add_argument("--seeds", default=None,
                       help="comma-separated seed list (default: 0..trials-1)")
    sweep.add_argument("--trials", type=int, default=4,
                       help="number of seeds when --seeds is not given")
    sweep.add_argument("--jobs", "-j", type=int, default=None,
                       help="worker processes (default: cpu count)")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-trial timeout in seconds")
    sweep.add_argument("--retries", type=int, default=1,
                       help="retries for crashed workers")
    sweep.add_argument("--out-dir", default="results",
                       help="where BENCH_<id>.json files land")
    sweep.add_argument("--cache-dir", default=None,
                       help="result cache root (default: <out-dir>/cache)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="disable the content-addressed result cache")
    sweep.add_argument("--trace-dir", default=None,
                       help="write per-trial JSONL traces here (benches that "
                            "support capture)")
    sweep.set_defaults(func=_cmd_sweep)

    perf = sub.add_parser(
        "perf", help="hot-path microbenchmark suite -> BENCH_PERF.json",
        parents=[_selection_parent()],
    )
    perf.add_argument("bench", nargs="*",
                      help="bench names (default: the whole suite)")
    perf.add_argument("--scale", type=float, default=1.0,
                      help="workload multiplier (0.1 for a quick smoke run)")
    perf.add_argument("--output", "-o", default="BENCH_PERF.json",
                      help="report path ('' to skip writing)")
    perf.add_argument("--reference",
                      default="benchmarks/perf/baseline_unoptimized.json",
                      help="prior report to compute speedups against "
                           "(skipped when missing)")
    perf.add_argument("--check", default=None, metavar="BASELINE",
                      help="fail (exit 1) if any bench regresses more than "
                           "--tolerance vs this committed report")
    perf.add_argument("--tolerance", type=float, default=0.30,
                      help="allowed calibration-normalized slowdown for "
                           "--check (default 0.30)")
    perf.set_defaults(func=_cmd_perf)

    profile = sub.add_parser(
        "profile", help="run one microbenchmark under cProfile"
    )
    profile.add_argument("bench", help="bench name (see `repro perf`)")
    profile.add_argument("--scale", type=float, default=1.0)
    profile.add_argument("--top", type=int, default=25,
                         help="number of hotspot rows to print")
    profile.add_argument("--sort", default="cumulative",
                         choices=("cumulative", "tottime", "calls"))
    profile.set_defaults(func=_cmd_profile)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
