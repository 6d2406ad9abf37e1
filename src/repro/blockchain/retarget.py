"""Live difficulty retargeting for simulated mining networks.

Section VI-A: "the PoW puzzle difficulty is dynamic so that the block
generation time converges to a fixed value."  The analytic form is
checked by bench E1b; this module closes the loop *inside a running
network*: a retargeter periodically measures the realized block rate on
an observer chain and adjusts every miner's ``difficulty_factor`` the
way Bitcoin's epoch rule would, so hash-power shocks (miners joining or
leaving, modelled by ``hashrate_boost``) are absorbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.blockchain.node import BlockchainNode

#: Bitcoin clamps each adjustment step to 4x either way.
MAX_STEP = 4.0


@dataclass
class RetargetRecord:
    """One adjustment: when, what was measured, what was applied."""

    time_s: float
    measured_interval_s: float
    factor_applied: float
    difficulty_factor_after: float


class LiveRetargeter:
    """Epoch-style difficulty controller over a set of mining nodes."""

    def __init__(
        self,
        nodes: List[BlockchainNode],
        target_interval_s: float,
        check_every_s: float,
    ) -> None:
        if target_interval_s <= 0 or check_every_s <= 0:
            raise ValueError("intervals must be positive")
        self.nodes = nodes
        self.target_interval_s = target_interval_s
        self.check_every_s = check_every_s
        self.history: List[RetargetRecord] = []
        self._last_height = nodes[0].chain.height

    def start(self, simulator, until: float) -> None:
        simulator.schedule_periodic(
            self.check_every_s, lambda: self._retarget(simulator.now), until=until
        )

    def _retarget(self, now: float) -> None:
        observer = self.nodes[0].chain
        blocks = observer.height - self._last_height
        self._last_height = observer.height
        if blocks <= 0:
            return
        measured_interval = self.check_every_s / blocks
        # Blocks too fast ⇒ ratio < 1 ⇒ difficulty must rise by 1/ratio.
        ratio = measured_interval / self.target_interval_s
        ratio = min(max(ratio, 1.0 / MAX_STEP), MAX_STEP)
        factor = 1.0 / ratio
        for node in self.nodes:
            miner = node.miner
            if miner is None:
                continue
            miner.difficulty_factor *= factor
            node.refresh_mining()
        self.history.append(
            RetargetRecord(
                time_s=now,
                measured_interval_s=measured_interval,
                factor_applied=factor,
                difficulty_factor_after=(
                    self.nodes[0].miner.difficulty_factor
                    if self.nodes[0].miner
                    else 1.0
                ),
            )
        )


def apply_hashrate_shock(nodes: List[BlockchainNode], boost: float) -> None:
    """Multiply every miner's hash power (new hardware joins/leaves)."""
    if boost <= 0:
        raise ValueError("boost must be positive")
    for node in nodes:
        miner = node.miner
        if miner is not None:
            miner.hashrate_boost *= boost
            node.refresh_mining()
