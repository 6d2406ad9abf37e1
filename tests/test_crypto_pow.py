"""Tests for repro.crypto.pow (Section III-A1 / III-B)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.pow import (
    MAX_TARGET,
    check_antispam,
    check_pow,
    difficulty_to_target,
    expected_attempts,
    leading_zero_bits,
    pow_hash,
    solve_antispam,
    solve_pow,
)


class TestTargetArithmetic:
    def test_difficulty_one_accepts_everything(self):
        assert difficulty_to_target(1) == MAX_TARGET

    def test_doubling_difficulty_halves_target(self):
        assert difficulty_to_target(2) == pytest.approx(MAX_TARGET / 2, rel=1e-9)

    def test_round_trip(self):
        target = difficulty_to_target(1000)
        assert MAX_TARGET / target == pytest.approx(1000, rel=1e-3)

    def test_rejects_subunit_difficulty(self):
        with pytest.raises(ValueError):
            difficulty_to_target(0.5)

    def test_leading_zero_bits(self):
        # difficulty 2^k requires ~k leading zero bits.
        assert leading_zero_bits(difficulty_to_target(1 << 12)) == 12
        assert leading_zero_bits(MAX_TARGET) == 0


class TestSolveAndCheck:
    def test_solution_verifies(self):
        target = difficulty_to_target(64)
        solution = solve_pow(b"header", target)
        assert solution is not None
        assert check_pow(b"header", solution.nonce, target)

    def test_solution_bound_to_payload(self):
        target = difficulty_to_target(64)
        solution = solve_pow(b"header", target)
        assert not check_pow(b"other-header", solution.nonce, target)

    def test_trivial_target_first_nonce(self):
        solution = solve_pow(b"x", MAX_TARGET)
        assert solution.nonce == 0 and solution.attempts == 1

    def test_max_attempts_exhaustion(self):
        # Astronomically hard target: bounded search must give up.
        assert solve_pow(b"x", 1, max_attempts=10) is None

    def test_attempts_scale_with_difficulty(self):
        # Statistical: mean attempts at difficulty d is ~d.
        difficulty = 128
        target = difficulty_to_target(difficulty)
        attempts = [
            solve_pow(bytes([i]), target).attempts for i in range(60)
        ]
        mean = sum(attempts) / len(attempts)
        assert difficulty / 3 < mean < difficulty * 3

    def test_pow_hash_nonce_sensitivity(self):
        assert pow_hash(b"p", 0) != pow_hash(b"p", 1)

    def test_expected_attempts(self):
        assert expected_attempts(4096) == 4096.0


class TestAntispam:
    def test_stamp_round_trip(self):
        work = solve_antispam(b"block-root", difficulty=32)
        assert check_antispam(b"block-root", work, difficulty=32)

    def test_stamp_not_transferable(self):
        work = solve_antispam(b"root-a", difficulty=32)
        # Overwhelmingly likely to fail for a different root.
        assert not check_antispam(b"root-b", work, difficulty=2**30)

    @settings(max_examples=10, deadline=None)
    @given(st.binary(min_size=1, max_size=32))
    def test_any_payload_solvable(self, payload):
        work = solve_antispam(payload, difficulty=16)
        assert check_antispam(payload, work, difficulty=16)
