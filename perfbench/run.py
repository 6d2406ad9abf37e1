"""Run the ledger-simulator benchmark declared in ``BENCHMARK.json``.

Whole suite (every workload: untraced repeats, then one traced pass)::

    python3 perfbench/run.py [--seed N] [--repeats R] [--workload NAME ...]
                             [--out FILE] [--quick]

One run of one workload, the form a benchmark driver calls; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` reports the end-to-end metrics (medians over fresh child
processes, span wrappers never imported); ``--trace 1`` reports the
per-layer metrics from one untraced and one traced child.  Either form
exits non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
DEFAULT_OUT = HERE / "out" / "result.json"

DEFAULT_SEED = 1
DEFAULT_REPEATS = 5
QUICK_SCALE = 0.1
#: Host-seconds one timed phase is sized to; ``--seconds`` buys
#: ``seconds / PHASE_TARGET_S`` fresh children, never fewer than three.
PHASE_TARGET_S = 4.0
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """A child could not be run or broke the declared metric contract."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def child_env() -> Dict[str, str]:
    """Fixed hash seed, default accel tier, gc left at its defaults."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_ACCEL", None)
    return env


def spawn(*args: str) -> dict:
    """Run ``child.py`` to completion — one child at a time — and parse
    the JSON object on the last line of its output."""
    try:
        done = subprocess.run(
            [sys.executable, str(CHILD), *args], env=child_env(), cwd=str(ROOT),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {' '.join(args)} timed out") from exc
    if done.returncode != 0:
        raise BenchError(
            f"child {' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(name: str, seed: int, traced: bool, scale: float) -> dict:
    return spawn("--workload", name, "--seed", str(seed),
                 "--trace", "1" if traced else "0", "--scale", repr(scale))


def end_to_end(unit: dict) -> Dict[str, float]:
    offered, completed = unit["offered"], unit["completed"]
    return {
        "run_s": unit["run_s"],
        "throughput_ops_s": completed / unit["run_s"],
        "setup_s": unit["setup_s"],
        "peak_rss_mb": unit["peak_rss_mb"],
        # the complement of the failed share: a healthy run reads exactly
        # 1, which a relative regression bound can hold (it cannot hold 0)
        "ops_completed_share": completed / offered,
    }


def summary(values: List[float], unit: str) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "unit": unit, "raw": values}


def same_outcome(a: dict, b: dict) -> bool:
    """Simulated outcomes repeat exactly under one seed: fingerprint,
    op counts and every deterministic counter (``model.*``,
    ``sim.events``, ``net.deliveries``, ...)."""
    return all(a[key] == b[key]
               for key in ("fingerprint", "offered", "completed", "counts"))


def run_workload(name: str, seed: int, repeats: int, traced: bool,
                 scale: float, spec: dict) -> dict:
    """Untraced repeats (end-to-end), then optionally the traced pass."""
    units = [measure(name, seed, False, scale) for _ in range(repeats)]
    first = units[0]
    per_unit = [end_to_end(unit) for unit in units]
    checks = {check: all(unit["checks"][check] for unit in units)
              for check in first["checks"]}
    checks["repeats_agree"] = all(same_outcome(first, unit) for unit in units)
    record = {
        "workload": name,
        "seed": seed,
        "fingerprint": first["fingerprint"],
        "offered": first["offered"],
        "completed": first["completed"],
        "end_to_end": {
            metric["name"]: summary(
                [values[metric["name"]] for values in per_unit], metric["unit"])
            for metric in spec["end_to_end"]},
        "checks": checks,
    }
    if traced:
        trace = measure(name, seed, True, scale)
        checks["traced_agrees"] = (same_outcome(first, trace)
                                   and all(trace["checks"].values()))
        layer = dict(first["counts"])
        layer.update({key: statistics.median(unit["timings"][key] for unit in units)
                      for key in first["timings"]})
        layer.update(trace["spans"])
        layer["layers.trace_overhead_ratio"] = (
            trace["run_s"] / record["end_to_end"]["run_s"]["median"])
        declared = [metric["name"] for metric in spec["per_layer"]]
        stray = sorted(set(layer) - set(declared))
        if stray:
            raise BenchError(f"{name}: metrics not declared in "
                             f"BENCHMARK.json: {', '.join(stray)}")
        record["per_layer"] = {metric: float(layer.get(metric, 0.0))
                               for metric in declared}
        record["traced_run_s"] = trace["run_s"]
        record["dominant_layer"] = trace["dominant_layer"]
        record["spans_recorded"] = trace["spans_recorded"]
        record["spans_dropped"] = trace["spans_dropped"]
    return record


def print_rows(record: dict, spec: dict) -> None:
    """``workload  metric  value  unit``, one row per metric."""
    name = record["workload"]
    for metric, stat in record["end_to_end"].items():
        print(f"{name}  {metric}  {stat['median']:.6g}  {stat['unit']}  "
              f"(q1 {stat['q1']:.6g}, q3 {stat['q3']:.6g}, n {stat['n']})")
    units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    for metric, value in record.get("per_layer", {}).items():
        print(f"{name}  {metric}  {value:.6g}  {units[metric]}")
    print(f"{name}  fingerprint  {record['fingerprint']}")
    if "dominant_layer" in record:
        print(f"{name}  dominant_layer  {record['dominant_layer']}")
    for check, passed in record["checks"].items():
        if not passed:
            print(f"{name}  CHECK FAILED  {check}")


def driver_line(record: dict, spec: dict, traced: bool, repeats: int) -> str:
    """The one-line result of a single driver run."""
    if traced:
        units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in record["per_layer"].items()}
    else:
        metrics = {name: {"value": stat["median"], "unit": stat["unit"]}
                   for name, stat in record["end_to_end"].items()}
    return json.dumps({
        "correct": all(record["checks"].values()),
        "attempted": record["offered"] * repeats,
        "failed": (record["offered"] - record["completed"]) * repeats,
        "metrics": metrics,
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=None,
                        help=f"untraced children per workload "
                             f"(default {DEFAULT_REPEATS})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="host-seconds of timed phase to measure, in "
                             f"children of about {PHASE_TARGET_S:g} s each")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="single-run form: 0 = end-to-end, 1 = per-layer")
    parser.add_argument("--quick", action="store_true",
                        help="every workload at 1/10 size, one repeat")
    parser.add_argument("--out", type=Path, default=None,
                        help=f"result JSON (suite form; default {DEFAULT_OUT})")
    args = parser.parse_args(argv)

    spec = load_spec()
    known = [workload["name"] for workload in spec["workloads"]]
    selected = args.workload or known
    unknown = [name for name in selected if name not in known]
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)} "
                     f"(choose from {', '.join(known)})")
    scale = QUICK_SCALE if args.quick else 1.0
    if args.repeats is not None:
        repeats = args.repeats
    elif args.quick:
        repeats = 1
    elif args.seconds is not None:
        repeats = max(MIN_REPEATS, round(args.seconds / PHASE_TARGET_S))
    else:
        repeats = DEFAULT_REPEATS
    single = args.trace is not None
    if single and len(selected) != 1:
        parser.error("--trace takes exactly one --workload")

    try:
        if single:
            traced = bool(args.trace)
            if traced:
                repeats = 1
            record = run_workload(selected[0], args.seed, repeats, traced,
                                  scale, spec)
            print_rows(record, spec)
            print(driver_line(record, spec, traced, repeats))
            return 0 if all(record["checks"].values()) else 1
        result = {
            "schema": 1,
            "claim": None,
            "seed": args.seed,
            "repeats": repeats,
            "quick": args.quick,
            "environment": spawn("--env"),
            "workloads": {},
        }
        for name in selected:
            record = run_workload(name, args.seed, repeats, True, scale, spec)
            print_rows(record, spec)
            result["workloads"][name] = record
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    out = args.out or DEFAULT_OUT
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    print(f"wrote {out}")
    failed = [f"{name}:{check}" for name, record in result["workloads"].items()
              for check, passed in record["checks"].items() if not passed]
    if failed:
        print("FAILED checks: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
