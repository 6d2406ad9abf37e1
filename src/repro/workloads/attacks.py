"""Adversarial workloads.

* :class:`DoubleSpendAttacker` — the Section IV-A adversary: mines a
  secret branch containing a conflicting transaction and publishes it if
  it ever outruns the honest chain.
* :class:`SpamAttacker` — the Section III-B adversary Nano's anti-spam
  PoW throttles: tries to flood the lattice with minimal-value sends.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto.pow import expected_attempts


@dataclass
class DoubleSpendOutcome:
    """Result of one simulated double-spend race."""

    success: bool
    honest_blocks: int
    attacker_blocks: int


class DoubleSpendAttacker:
    """Monte-Carlo double-spend race, block by block.

    The merchant ships after ``confirmations`` honest blocks; the
    attacker, holding ``hashrate_share`` of the power, mines privately
    from the block before the payment and wins by ever taking the lead
    (the longest chain then carries the conflicting spend).  Success
    frequency converges to Nakamoto's closed form
    (:func:`repro.confirmation.nakamoto.attacker_success_probability`).
    """

    def __init__(
        self,
        hashrate_share: float,
        confirmations: int,
        rng: random.Random,
        give_up_epsilon: float = 1e-4,
    ) -> None:
        if not 0 < hashrate_share < 1:
            raise ValueError("attacker share must be in (0, 1)")
        if confirmations < 1:
            raise ValueError("merchant must wait at least one confirmation")
        self.q = hashrate_share
        self.confirmations = confirmations
        self.rng = rng
        # A rational attacker abandons the race once the catch-up
        # probability (q/p)^deficit drops below epsilon; this adaptive
        # horizon keeps the truncation bias below epsilon even as q→1/2,
        # where fixed-round truncation badly under-counts successes.
        import math

        if hashrate_share < 0.5:
            ratio = hashrate_share / (1.0 - hashrate_share)
            self.give_up_deficit = max(
                self.confirmations + 1,
                int(math.ceil(math.log(give_up_epsilon) / math.log(ratio))),
            )
        else:
            self.give_up_deficit = 10_000  # q >= 1/2 always catches up

    def run_once(self) -> DoubleSpendOutcome:
        """One race.  Phase 1: honest chain reaches z confirmations while
        the attacker mines k hidden blocks.  Phase 2: gambler's ruin from
        the resulting deficit, truncated at ``max_extra_rounds``.

        Success uses Nakamoto's criterion — the attacker ever *catches
        up* to the honest chain (deficit reaches zero) — which is the
        event his closed-form sums, so the Monte Carlo converges to
        :func:`repro.confirmation.nakamoto.attacker_success_probability`.
        """
        honest = 0
        attacker = 0
        while honest < self.confirmations:
            if self.rng.random() < self.q:
                attacker += 1
            else:
                honest += 1
        while attacker < honest:
            if honest - attacker > self.give_up_deficit:
                return DoubleSpendOutcome(False, honest, attacker)
            if self.rng.random() < self.q:
                attacker += 1
            else:
                honest += 1
        return DoubleSpendOutcome(True, honest, attacker)

    def success_rate(self, trials: int) -> float:
        """Empirical attack success probability over ``trials`` races."""
        if trials <= 0:
            raise ValueError("trials must be positive")
        wins = sum(1 for _ in range(trials) if self.run_once().success)
        return wins / trials


@dataclass
class SpamCost:
    """What a spam campaign costs the attacker (bench E3)."""

    transactions: int
    total_hashes: float
    wall_clock_s: float


class SpamAttacker:
    """Models flooding a DAG ledger under hashcash anti-spam PoW.

    Each spam block requires ``difficulty`` expected hash attempts; with
    ``hashrate`` hashes/second the attacker's sustainable spam rate is
    ``hashrate / difficulty`` TPS, while a legitimate user issuing one tx
    pays the same tiny cost once — "a spam protection measure to prevent
    over-generation of transactions" that leaves normal use unaffected.
    """

    def __init__(self, hashrate_hps: float, work_difficulty: float) -> None:
        if hashrate_hps <= 0:
            raise ValueError("hashrate must be positive")
        self.hashrate_hps = hashrate_hps
        self.work_difficulty = work_difficulty

    @property
    def max_spam_tps(self) -> float:
        return self.hashrate_hps / expected_attempts(self.work_difficulty)

    def campaign_cost(self, transactions: int) -> SpamCost:
        if transactions < 0:
            raise ValueError("transactions must be non-negative")
        hashes = transactions * expected_attempts(self.work_difficulty)
        return SpamCost(
            transactions=transactions,
            total_hashes=hashes,
            wall_clock_s=hashes / self.hashrate_hps,
        )
