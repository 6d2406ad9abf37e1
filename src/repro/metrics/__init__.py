"""Summary statistics, service-level curves and report tables."""

from repro.metrics.slo import (
    LoadPoint,
    detect_saturation_knee,
    load_point,
)
from repro.metrics.stats import SummaryStats, confidence_interval, percentile, summarize
from repro.metrics.tables import render_table

__all__ = [
    "LoadPoint",
    "SummaryStats",
    "confidence_interval",
    "detect_saturation_knee",
    "load_point",
    "percentile",
    "render_table",
    "summarize",
]
