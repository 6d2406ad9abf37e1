"""Service-level reporting for sustained-load runs.

The paper's latency claims (Section IV: ~1 h Bitcoin, ~3 min Ethereum,
seconds for Nano) are *unloaded* figures.  Under sustained offered load
the interesting quantity is the latency/throughput curve: carried
throughput tracks offered load up to a saturation knee, beyond which the
backlog (Section VI's pending-transaction picture) grows without bound
and tail latency explodes.  This module turns per-transaction
submit→confirm latencies into that curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.metrics.stats import percentile

#: Carried/offered ratio at or above which a load point counts as "keeping
#: up".  Poisson noise makes exact equality unattainable.
DEFAULT_KNEE_THRESHOLD = 0.8


@dataclass(frozen=True)
class LoadPoint:
    """One offered-load level of a sweep, with its service outcome."""

    offered_tps: float
    achieved_tps: float
    submitted: int
    confirmed: int
    p50_s: float
    p95_s: float
    p99_s: float
    backpressure_fraction: float = 0.0
    rejected: int = 0

    @property
    def carried_ratio(self) -> float:
        """Confirmed transactions as a share of *actual* arrivals.

        Measured against the realized arrival count, not the nominal
        rate: at low rates Poisson noise makes the realized rate drift
        well away from nominal, which would masquerade as saturation.
        """
        offered = self.submitted + self.rejected
        return self.confirmed / offered if offered else 0.0

    def as_metrics(self, prefix: str) -> Dict[str, float]:
        """Flatten into ``{prefix}_{load}_{metric}`` keys for bench rows."""
        tag = f"{prefix}_{self.offered_tps:g}tps"
        return {
            f"{tag}_achieved_tps": self.achieved_tps,
            f"{tag}_p50_s": self.p50_s,
            f"{tag}_p99_s": self.p99_s,
            f"{tag}_backpressure": self.backpressure_fraction,
        }


def load_point(
    offered_tps: float,
    latencies_s: Sequence[float],
    submitted: int,
    duration_s: float,
    rejected: int = 0,
) -> LoadPoint:
    """Summarize one load level from raw confirmation latencies."""
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    confirmed = len(latencies_s)
    offered = submitted + rejected
    return LoadPoint(
        offered_tps=offered_tps,
        achieved_tps=confirmed / duration_s,
        submitted=submitted,
        confirmed=confirmed,
        p50_s=percentile(latencies_s, 50) if latencies_s else float("inf"),
        p95_s=percentile(latencies_s, 95) if latencies_s else float("inf"),
        p99_s=percentile(latencies_s, 99) if latencies_s else float("inf"),
        backpressure_fraction=rejected / offered if offered else 0.0,
        rejected=rejected,
    )


def detect_saturation_knee(
    points: Sequence[LoadPoint],
    threshold: float = DEFAULT_KNEE_THRESHOLD,
) -> Optional[float]:
    """The highest offered load the system still carries.

    Scanning in offered-load order: the knee is the last load whose
    carried ratio is ≥ ``threshold``, provided some higher load falls
    below it (otherwise the sweep never saturated and there is no knee
    to report).  Returns the knee's offered TPS, or None.
    """
    ordered = sorted(points, key=lambda p: p.offered_tps)
    knee: Optional[float] = None
    saturated = False
    for point in ordered:
        if point.carried_ratio >= threshold:
            if not saturated:
                knee = point.offered_tps
        else:
            saturated = True
    return knee if saturated else None
