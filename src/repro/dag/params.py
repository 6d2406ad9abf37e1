"""Protocol constants for the DAG reference implementation (Nano)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.pow import DEFAULT_ANTISPAM_DIFFICULTY


@dataclass(frozen=True)
class NanoParams:
    """Nano deployment parameters.

    ``work_difficulty`` is the hashcash anti-spam threshold per block
    (Section III-B).  ``quorum_fraction`` is the share of online voting
    weight required to confirm a block (Section IV-B: "majority vote").
    ``name`` labels the preset.
    """

    name: str = "nano"
    work_difficulty: float = DEFAULT_ANTISPAM_DIFFICULTY
    quorum_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.quorum_fraction <= 1:
            raise ValueError("quorum fraction must be in (0, 1]")
        if self.work_difficulty < 1:
            raise ValueError("work difficulty must be >= 1")


#: Default preset used throughout the benches.
NANO = NanoParams()

#: Preset with negligible anti-spam work, for throughput experiments where
#: client-side work generation should not be the bottleneck.
NANO_FAST = NanoParams(name="nano-fast", work_difficulty=1)
