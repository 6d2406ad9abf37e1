"""Summary statistics for experiment outputs (no scipy dependency)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class SummaryStats:
    count: int
    mean: float
    stdev: float
    minimum: float
    p50: float
    p95: float
    p99: float
    maximum: float

    def render(self, label: str = "", unit: str = "") -> str:
        return (
            f"{label}: n={self.count} mean={self.mean:.3f}{unit} "
            f"p50={self.p50:.3f}{unit} p95={self.p95:.3f}{unit} "
            f"max={self.maximum:.3f}{unit}"
        )


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    if not values:
        raise ValueError("cannot take a percentile of no data")
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return float(ordered[low])
    frac = rank - low
    return float(ordered[low] * (1 - frac) + ordered[high] * frac)


def summarize(values: Sequence[float]) -> SummaryStats:
    if not values:
        raise ValueError("cannot summarize no data")
    n = len(values)
    mean = sum(values) / n
    # Sample variance (n - 1): the stdev and the CI estimate the spread
    # of the population the trials were drawn from.
    variance = sum((v - mean) ** 2 for v in values) / (n - 1) if n > 1 else 0.0
    return SummaryStats(
        count=n,
        mean=mean,
        stdev=math.sqrt(variance),
        minimum=float(min(values)),
        p50=percentile(values, 50),
        p95=percentile(values, 95),
        p99=percentile(values, 99),
        maximum=float(max(values)),
    )


def windowed_rate(
    times: Sequence[float], window_s: float, until: Optional[float] = None
) -> List[Tuple[float, float]]:
    """Event rate (per second) in fixed windows over ``times``.

    Returns ``[(window_end_s, rate), ...]`` covering ``(0, until]`` with
    half-open ``(edge - window_s, edge]`` windows — ``until`` defaults to
    the last event time, which is therefore *included* in the final
    window (events exactly on a window edge count toward the window that
    ends there).  This is how degraded-network runs visualise a fault:
    delivery rate collapses inside the partition window and recovers
    after heal.
    """
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    if until is None:
        until = max(times) if times else 0.0
    ordered = sorted(t for t in times if t <= until)
    windows: List[Tuple[float, float]] = []
    edge = window_s
    i = 0
    while edge - window_s < until:
        count = 0
        while i < len(ordered) and ordered[i] <= edge:
            count += 1
            i += 1
        windows.append((edge, count / window_s))
        edge += window_s
    return windows


def confidence_interval(
    values: Sequence[float], z: float = 1.96
) -> Tuple[float, float]:
    """Normal-approximation CI for the mean (default 95%)."""
    stats = summarize(values)
    if stats.count < 2:
        return (stats.mean, stats.mean)
    half = z * stats.stdev / math.sqrt(stats.count)
    return (stats.mean - half, stats.mean + half)


def aggregate_samples(values: Sequence[float], z: float = 1.96) -> dict:
    """Cross-seed aggregate for one metric: mean, CI, spread.

    The flat-dict shape is what ``repro.runner.report`` writes into
    ``BENCH_<id>.json`` aggregate blocks.  A single sample degenerates
    to a zero-width interval rather than raising.
    """
    stats = summarize(values)
    lo, hi = confidence_interval(values, z)
    return {
        "n": stats.count,
        "mean": stats.mean,
        "stdev": stats.stdev,
        "min": stats.minimum,
        "max": stats.maximum,
        "ci95_lo": lo,
        "ci95_hi": hi,
    }


def binomial_ci(successes: int, trials: int, z: float = 1.96) -> Tuple[float, float]:
    """Wilson interval for a proportion (attack success rates)."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    p = successes / trials
    denom = 1 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2))
    return (max(0.0, center - half), min(1.0, center + half))
