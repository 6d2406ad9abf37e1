"""Cryptographic primitives for both ledger paradigms.

* :mod:`repro.crypto.hashing` — SHA-256 / double-SHA-256 digests.
* :mod:`repro.crypto.merkle` — Bitcoin-style Merkle trees with inclusion
  proofs (Section II-A / V-A of the paper).
* :mod:`repro.crypto.trie` — a Merkle-Patricia trie for Ethereum's state,
  transaction and receipt roots (Section II-A / V-A).
* :mod:`repro.crypto.keys` — simulated signature scheme (see module
  docstring for the substitution rationale).
* :mod:`repro.crypto.pow` — partial hash inversion proof-of-work and
  difficulty/target arithmetic (Section III-A1), plus the hashcash-style
  anti-spam variant Nano uses (Section III-B).
"""

from repro.crypto import accel
from repro.crypto.hashing import sha256, sha256d
from repro.crypto.keys import (
    KeyPair,
    prewarm_signatures,
    sigcache_counters,
    verify_signature,
    verify_signatures_batch,
)
from repro.crypto.merkle import MerkleTree
from repro.crypto.pow import check_pow, difficulty_to_target, solve_pow
from repro.crypto.trie import MerklePatriciaTrie

__all__ = [
    "KeyPair",
    "MerklePatriciaTrie",
    "MerkleTree",
    "accel",
    "check_pow",
    "difficulty_to_target",
    "prewarm_signatures",
    "sha256",
    "sha256d",
    "sigcache_counters",
    "solve_pow",
    "verify_signature",
    "verify_signatures_batch",
]
