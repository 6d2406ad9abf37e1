"""One measured unit: import, set up, time one phase, check, report.

``run.py`` starts this file in a fresh process per (workload, repeat)
and reads the JSON object on the last line of its standard output.
``setup_s`` runs from the first statement below — before ``repro`` is
imported — to the start of the timed phase.
"""

from time import perf_counter

CHILD_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"


def pin_to_last_cpu() -> None:
    """One load-generating thread on one core: the scheduler moving it
    between cores mid-run was the largest noise source on the 2-core
    reference box (cpu0 also serves the guest's interrupts)."""
    if hasattr(os, "sched_setaffinity"):
        cpus = os.sched_getaffinity(0)
        if len(cpus) > 1:
            os.sched_setaffinity(0, {max(cpus)})


def environment() -> dict:
    from repro.crypto import accel
    from repro.perf.suite import calibration_score

    return {
        "accel_backend": accel.active_backend(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "calibration_score": calibration_score(),
    }


def measure(name: str, seed: int, traced: bool, scale: float) -> dict:
    import workloads

    recorder = None
    if traced:
        import spans
        recorder = spans.install()
    workload = workloads.WORKLOADS[name]()
    workload.setup(seed, scale)
    if recorder is not None:
        recorder.reset()
    t0 = perf_counter()
    workload.timed()
    t1 = perf_counter()
    run_s = t1 - t0
    result = workload.finish(run_s)
    result.update({
        "workload": name,
        "seed": seed,
        "traced": traced,
        "run_s": run_s,
        "setup_s": t0 - CHILD_START,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if recorder is not None:
        layer = spans.layer_metrics(recorder, run_s)
        messages = result["counts"].get("net.crowd_messages", 0.0)
        layer["net.crowd_ms_per_message"] = (
            1000.0 * layer["net.crowd_self_s"] / messages if messages else 0.0)
        result["spans"] = layer
        result["dominant_layer"] = recorder.dominant_layer()
        result["spans_recorded"] = len(recorder.spans)
        result["spans_dropped"] = recorder.dropped
        OUT_DIR.mkdir(exist_ok=True)
        recorder.dump_jsonl(OUT_DIR / f"{name}.spans.jsonl")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--env", action="store_true",
                        help="print the host/interpreter record and exit")
    args = parser.parse_args()
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no simulator source at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    pin_to_last_cpu()
    if args.env:
        print(json.dumps(environment()))
        return 0
    print(json.dumps(measure(args.workload, args.seed, bool(args.trace),
                             args.scale)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
