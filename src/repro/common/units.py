"""Byte / time / token unit helpers used in reports and parameter presets."""

from __future__ import annotations

KB = 1_000
MB = 1_000_000
GB = 1_000_000_000

KIB = 1_024
MIB = 1_024 * 1_024
GIB = 1_024 * 1_024 * 1_024

SECOND = 1.0
MINUTE = 60.0
HOUR = 3_600.0
DAY = 86_400.0
YEAR = 365.0 * DAY

# Smallest token units of the three reference implementations.
SATOSHI_PER_BTC = 100_000_000
WEI_PER_ETHER = 10**18
RAW_PER_NANO = 10**30


def format_bytes(n: float) -> str:
    """Human-readable byte count: ``format_bytes(1_500_000) == '1.50 MB'``."""
    if n < 0:
        return "-" + format_bytes(-n)
    for unit, name in ((GB, "GB"), (MB, "MB"), (KB, "KB")):
        if n >= unit:
            return f"{n / unit:.2f} {name}"
    return f"{n:.0f} B"


def format_duration(seconds: float) -> str:
    """Human-readable duration: ``format_duration(600) == '10.0 min'``."""
    if seconds < 0:
        return "-" + format_duration(-seconds)
    if seconds >= DAY:
        return f"{seconds / DAY:.1f} d"
    if seconds >= HOUR:
        return f"{seconds / HOUR:.1f} h"
    if seconds >= MINUTE:
        return f"{seconds / MINUTE:.1f} min"
    if seconds >= 1:
        return f"{seconds:.1f} s"
    return f"{seconds * 1000:.1f} ms"
