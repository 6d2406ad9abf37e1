"""Proof of Work: partial hash inversion (Section III-A1).

Bitcoin's puzzle requires ``sha256d(header ‖ nonce)`` to be numerically
below a *target*; the paper describes this as the hash "starting with at
least a predefined number of 0 bits".  The same primitive, at a much
lower difficulty and detached from leader election, is Nano's hashcash-
style anti-spam throttle (Section III-B).

Difficulty and target are related by ``difficulty = MAX_TARGET / target``:
doubling difficulty halves the share of acceptable hashes, so the expected
number of hash evaluations per solution is ``difficulty * 2^16`` with
Bitcoin's conventions; here we normalize so expected attempts equal the
difficulty exactly, which keeps the arithmetic in benchmarks transparent.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from repro.common.types import Hash
from repro.crypto.hashing import hash_to_int, sha256d

# Hashes are 256-bit; a difficulty-1 target accepts every hash.
MAX_TARGET = 2**256 - 1


def difficulty_to_target(difficulty: float) -> int:
    """Target below which a hash wins, for a given difficulty."""
    if difficulty < 1:
        raise ValueError(f"difficulty must be >= 1, got {difficulty}")
    if float(difficulty).is_integer():
        return MAX_TARGET // int(difficulty)  # exact; avoids float rounding
    return min(MAX_TARGET, int(MAX_TARGET / difficulty))


def leading_zero_bits(target: int) -> int:
    """The paper's framing: number of leading zero bits the target implies."""
    return 256 - target.bit_length()


def pow_hash(payload: bytes, nonce: int) -> Hash:
    """The puzzle function: double-SHA256 of payload plus 8-byte nonce."""
    return sha256d(payload + struct.pack(">Q", nonce))


def check_pow(payload: bytes, nonce: int, target: int) -> bool:
    """Cheap verification — the asymmetry that makes PoW usable."""
    return hash_to_int(pow_hash(payload, nonce)) <= target


@dataclass(frozen=True)
class PowSolution:
    nonce: int
    attempts: int
    digest: Hash


def solve_pow(
    payload: bytes,
    target: int,
    start_nonce: int = 0,
    max_attempts: Optional[int] = None,
) -> Optional[PowSolution]:
    """Grind nonces until the hash meets ``target``.

    Returns ``None`` when ``max_attempts`` is exhausted — callers treat
    that as "lost the lottery this round".  This is the *real* puzzle
    (suitable at test difficulties); network-scale simulations model the
    same process as Poisson block discovery (see
    :class:`repro.blockchain.miner.SimulatedMiner`).
    """
    nonce = start_nonce
    attempts = 0
    while max_attempts is None or attempts < max_attempts:
        digest = pow_hash(payload, nonce)
        attempts += 1
        if hash_to_int(digest) <= target:
            return PowSolution(nonce=nonce, attempts=attempts, digest=digest)
        nonce += 1
    return None


def expected_attempts(difficulty: float) -> float:
    """Mean number of hash evaluations to solve at ``difficulty``."""
    return float(difficulty)


# ---------------------------------------------------------------- hashcash

#: Default anti-spam difficulty for DAG blocks: cheap for a legitimate
#: sender issuing occasional transactions, expensive for a spammer issuing
#: thousands (Section III-B: "similar to Hashcash").
DEFAULT_ANTISPAM_DIFFICULTY = 1 << 12


def solve_antispam(payload: bytes, difficulty: float = DEFAULT_ANTISPAM_DIFFICULTY) -> int:
    """Compute the ``work`` field for a DAG block; returns the nonce."""
    solution = solve_pow(payload, difficulty_to_target(difficulty))
    assert solution is not None  # unbounded search always terminates
    return solution.nonce


def check_antispam(
    payload: bytes, work: int, difficulty: float = DEFAULT_ANTISPAM_DIFFICULTY
) -> bool:
    return check_pow(payload, work, difficulty_to_target(difficulty))
