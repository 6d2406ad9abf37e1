"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

A is the parent, B the change.  One row per (workload, end-to-end
metric) — ``same`` / ``better`` / ``worse`` / ``unresolved`` — judged by
the bounds ``BENCHMARK.json`` declares (the share of the parent's median
a metric may worsen by), plus whether fingerprints and the exact-repeat
counts match.  Exits 1 on any ``worse`` row; ``ops_completed_share`` is
exact under a fixed seed, so any drop past its 0.001 bound is ``worse``.
A fingerprint or ``model.*`` mismatch is printed but is not by itself a
failure: a behaviour fix legitimately moves it, a claimed speed-up may
not.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: per-layer counts that repeat exactly under one seed, beside ``model.*``
EXACT_NAMES = ("sim.events", "net.deliveries")


def verdict(better: str, bound: float, parent: dict, change: dict) -> str:
    sign = 1.0 if better == "lower" else -1.0
    allowed = bound * abs(parent["median"])
    worse_by = sign * (change["median"] - parent["median"])
    if worse_by > allowed:
        return "worse"
    spread = max(parent["q3"] - parent["q1"], change["q3"] - change["q1"])
    lows = (min(parent["raw"]), min(change["raw"]))
    highs = (max(parent["raw"]), max(change["raw"]))
    overlap = max(lows) <= min(highs)
    if spread > allowed and overlap:
        return "unresolved"
    return "better" if -worse_by > allowed else "same"


def exact_counts(record: dict) -> dict:
    return {name: value for name, value in record.get("per_layer", {}).items()
            if name.startswith("model.") or name in EXACT_NAMES}


def compare(parent: dict, change: dict, spec: dict) -> int:
    """Print the rows; return the process exit code."""
    failed = False
    for name in sorted(set(parent["workloads"]) ^ set(change["workloads"])):
        print(f"{name}  only in one file, skipped")
    for name, a in parent["workloads"].items():
        b = change["workloads"].get(name)
        if b is None:
            continue
        for metric in spec["end_to_end"]:
            pa, pb = a["end_to_end"][metric["name"]], b["end_to_end"][metric["name"]]
            row = verdict(metric["better"], metric["bound"], pa, pb)
            failed |= row == "worse"
            print(f"{name}  {metric['name']}  {row}  "
                  f"{pa['median']:.6g} -> {pb['median']:.6g} {pa['unit']}  "
                  f"(n {pa['n']}/{pb['n']})")
        same_state = a["fingerprint"] == b["fingerprint"]
        same_counts = exact_counts(a) == exact_counts(b)
        print(f"{name}  fingerprint  {'match' if same_state else 'DIFFER'}")
        print(f"{name}  model.* sim.events net.deliveries  "
              f"{'match' if same_counts else 'DIFFER'}")
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(args[0]) as fa, open(args[1]) as fb, \
            open(ROOT / "BENCHMARK.json") as fs:
        return compare(json.load(fa), json.load(fb), json.load(fs))


if __name__ == "__main__":
    sys.exit(main())
