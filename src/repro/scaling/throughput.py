"""Throughput measurement (Section VI).

Counts confirmed/settled entries over simulated time and renders the
comparisons the paper makes: Bitcoin 3–7 TPS, Ethereum 7–15 TPS, Nano's
uncapped protocol bounded by hardware, and Visa's 56,000 TPS yardstick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: "Visa which is able to process 56,000 transactions per second".
VISA_TPS = 56_000.0


@dataclass
class ThroughputMeter:
    """Sliding record of event timestamps with rate queries."""

    timestamps: List[float] = field(default_factory=list)

    def record(self, time_s: float, count: int = 1) -> None:
        self.timestamps.extend([time_s] * count)

    @property
    def total(self) -> int:
        return len(self.timestamps)

    def average_tps(self, duration_s: Optional[float] = None) -> float:
        """Events per second over ``duration_s`` (default: observed span)."""
        if not self.timestamps:
            return 0.0
        span = duration_s if duration_s is not None else (
            self.timestamps[-1] - self.timestamps[0]
        )
        if span <= 0:
            return float(len(self.timestamps))
        return len(self.timestamps) / span

    def peak_tps(self, window_s: float = 1.0) -> float:
        """Best rate over any ``window_s`` window — Nano's "peak ... 306
        TPS with an average of 105.75" distinction (Section VI-B)."""
        if not self.timestamps:
            return 0.0
        times = sorted(self.timestamps)
        best = 0
        left = 0
        for right in range(len(times)):
            while times[right] - times[left] > window_s:
                left += 1
            best = max(best, right - left + 1)
        return best / window_s


def protocol_tps_table(avg_tx_size_bytes: int = 250, avg_tx_gas: int = 21_000) -> Dict[str, float]:
    """The Section VI-A headline numbers, recomputed from presets."""
    from repro.blockchain.params import BITCOIN, ETHEREUM, ETHEREUM_POS, SEGWIT2X

    return {
        "bitcoin": BITCOIN.max_tps(avg_tx_size_bytes, avg_tx_gas),
        "segwit2x": SEGWIT2X.max_tps(avg_tx_size_bytes, avg_tx_gas),
        "ethereum": ETHEREUM.max_tps(avg_tx_size_bytes, avg_tx_gas),
        "ethereum-pos": ETHEREUM_POS.max_tps(avg_tx_size_bytes, avg_tx_gas),
        "visa": VISA_TPS,
    }
