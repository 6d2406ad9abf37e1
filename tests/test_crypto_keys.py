"""Tests for repro.crypto.keys (simulated signatures)."""

import random

import pytest

from repro.common.types import Address
from repro.crypto.hashing import sha256
from repro.crypto.keys import (
    PUBLIC_KEY_SIZE,
    SIGNATURE_SIZE,
    KeyPair,
    address_of,
    verify_signature,
)


class TestKeyGeneration:
    def test_deterministic_from_rng(self):
        a = KeyPair.generate(random.Random(1))
        b = KeyPair.generate(random.Random(1))
        assert a.public_key == b.public_key

    def test_distinct_seeds_distinct_keys(self):
        rng = random.Random(0)
        assert KeyPair.generate(rng).public_key != KeyPair.generate(rng).public_key

    def test_from_seed_requires_32_bytes(self):
        with pytest.raises(ValueError):
            KeyPair.from_seed(b"short")

    def test_public_key_size(self):
        kp = KeyPair.generate(random.Random(2))
        assert len(kp.public_key) == PUBLIC_KEY_SIZE

    def test_address_derivation_stable(self):
        kp = KeyPair.generate(random.Random(3))
        assert kp.address == address_of(kp.public_key)
        assert isinstance(kp.address, Address)


class TestSignatures:
    def test_sign_verify_round_trip(self):
        kp = KeyPair.generate(random.Random(4))
        sig = kp.sign(b"message")
        assert verify_signature(kp.public_key, b"message", sig)

    def test_signature_size(self):
        kp = KeyPair.generate(random.Random(5))
        assert len(kp.sign(b"m")) == SIGNATURE_SIZE

    def test_tampered_message_fails(self):
        kp = KeyPair.generate(random.Random(6))
        sig = kp.sign(b"message")
        assert not verify_signature(kp.public_key, b"messagE", sig)

    def test_tampered_signature_fails(self):
        kp = KeyPair.generate(random.Random(7))
        sig = bytearray(kp.sign(b"m"))
        sig[0] ^= 0xFF
        assert not verify_signature(kp.public_key, b"m", bytes(sig))

    def test_wrong_key_fails(self):
        rng = random.Random(8)
        a, b = KeyPair.generate(rng), KeyPair.generate(rng)
        assert not verify_signature(b.public_key, b"m", a.sign(b"m"))

    def test_unknown_public_key_fails(self):
        assert not verify_signature(b"\x00" * 32, b"m", b"\x00" * 64)

    def test_wrong_length_signature_fails(self):
        kp = KeyPair.generate(random.Random(9))
        assert not verify_signature(kp.public_key, b"m", b"short")

    def test_sign_hash(self):
        kp = KeyPair.generate(random.Random(10))
        digest = sha256(b"payload")
        sig = kp.sign(bytes(digest))
        assert verify_signature(kp.public_key, bytes(digest), sig)

    def test_signatures_deterministic(self):
        kp = KeyPair.generate(random.Random(11))
        assert kp.sign(b"m") == kp.sign(b"m")
