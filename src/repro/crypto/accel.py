"""Start-up self-test for the cloned-state HMAC that signing relies on.

:mod:`repro.crypto.keys` computes HMAC-SHA256 by copying SHA-256 states
that already absorbed the ipad/opad key block.  Importing this module
proves that byte-identical to :mod:`hmac` here, or fails the import.
"""

from __future__ import annotations

import hashlib
import hmac


def _self_test() -> None:
    seed, message = b"\x5a" * 32, b"repro-accel-selftest"
    padded = seed.ljust(64, b"\x00")  # SHA-256 block size
    inner = hashlib.sha256(bytes(b ^ 0x36 for b in padded)).copy()
    inner.update(message)
    outer = hashlib.sha256(bytes(b ^ 0x5C for b in padded)).copy()
    outer.update(inner.digest())
    if outer.digest() != hmac.new(seed, message, hashlib.sha256).digest():
        raise ImportError("hashlib cloned-state HMAC disagrees with hmac.new")


_self_test()


def active_backend() -> str:
    """Name of the signing/delivery implementation (there is one)."""
    return "batch"
