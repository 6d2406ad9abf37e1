"""Simulated signature scheme.

**Substitution note (see DESIGN.md §2).**  The real systems use ECDSA
(Bitcoin, Ethereum) and ed25519 (Nano).  The paper's comparative claims
never depend on the algebraic structure of the signatures — only on the
contract *"holders of the private key, and nobody else, can authorize a
transaction"* and on the signature's byte size for ledger accounting.

We therefore implement a keyed-hash scheme: a signature over ``message``
is ``HMAC-SHA256(seed, message)`` extended to 64 bytes (the size of a real
ed25519 / compact-ECDSA signature).  Verification resolves the public key
to its seed through a process-local registry populated at key generation.
Within a simulation this gives exactly the needed adversary model: an
attacker node that does not hold a ``KeyPair`` object cannot produce a
signature that verifies, and tampering with a signed message makes
verification fail.

**Amortization.**  Real node software amortizes signature checking over
bursts (Bitcoin Core's sigcache and batch-validation lineage); so do we.
:func:`verify_signatures_batch` partitions a burst into cached and
uncached triples, resolves each signer's HMAC state once per key, and
verifies the uncached set in one pass with no intermediate ``mac +
message`` joins.  Signing, scalar and batch verification all clone
per-seed ipad/opad SHA-256 states rather than build two :mod:`hmac`
objects per message — byte-identical output (proved at import by
:mod:`repro.crypto.accel`, property-tested against the stdlib), measured
≈2× faster per signature.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.memo import cached
from repro.common.types import ADDRESS_SIZE, Address

SIGNATURE_SIZE = 64
PUBLIC_KEY_SIZE = 32

_sha256 = hashlib.sha256

# Process-local oracle mapping public keys to signing seeds. Verification
# is a pure function of (public_key, message, signature) given this table.
_KEY_REGISTRY: Dict[bytes, bytes] = {}

# Signature cache, as real node software keeps (Bitcoin Core's sigcache):
# every node revalidates the same immutable transactions, and verification
# of a (public_key, message, signature) triple is deterministic once the
# key is registered.  Unregistered keys are never cached, so late key
# generation cannot be shadowed by a stale negative entry.
#
# Overflow evicts a bounded oldest chunk (dict preserves insertion order)
# instead of clearing wholesale: a full clear throws away the entire hot
# set and shows up as periodic verification-latency spikes under the A8
# soak.  Evicting 1/16th keeps the recent working set warm.
_SIG_CACHE: Dict[Tuple[bytes, bytes, bytes], bool] = {}
_SIG_CACHE_MAX = 1 << 16
_SIG_CACHE_EVICT_CHUNK = _SIG_CACHE_MAX >> 4

# Hit/miss/evict accounting, surfaced through the deployment's layer
# counters (the cache is process-global, so these are too).  ``seeds``
# counts signer-side inserts (see :meth:`KeyPair.sign`).
_SIG_STATS = {"hits": 0, "misses": 0, "evictions": 0, "seeds": 0}

# Per-seed HMAC proto-states: SHA-256 objects that have already absorbed
# the ipad/opad-xored key block.  Cloning one and feeding it the message
# is byte-identical to the stdlib HMAC (pinned by the accel self-test and
# a property test) at roughly half the cost.
_PROTO_CACHE: Dict[bytes, Tuple["hashlib._Hash", "hashlib._Hash"]] = {}
_PROTO_CACHE_MAX = 1 << 12
_HMAC_BLOCK = 64


def _hmac_protos(seed: bytes):
    """(inner, outer) SHA-256 states with the keyed pads pre-absorbed."""
    protos = _PROTO_CACHE.get(seed)
    if protos is None:
        if len(_PROTO_CACHE) >= _PROTO_CACHE_MAX:
            for stale in list(islice(iter(_PROTO_CACHE), _PROTO_CACHE_MAX >> 4)):
                del _PROTO_CACHE[stale]
        padded = seed.ljust(_HMAC_BLOCK, b"\x00")
        protos = (
            _sha256(bytes(b ^ 0x36 for b in padded)),
            _sha256(bytes(b ^ 0x5C for b in padded)),
        )
        _PROTO_CACHE[seed] = protos
    return protos


def _hmac_pair(seed: bytes, message: bytes) -> Tuple[bytes, bytes]:
    """``(mac, ext)`` halves of a signature over ``message``."""
    inner, outer = _hmac_protos(seed)
    i = inner.copy()
    i.update(message)
    o = outer.copy()
    o.update(i.digest())
    mac = o.digest()
    # ext = HMAC(seed, mac + message) — streamed, no concatenation.
    i = inner.copy()
    i.update(mac)
    i.update(message)
    o = outer.copy()
    o.update(i.digest())
    return mac, o.digest()


def _evict_sig_cache() -> None:
    for stale in list(islice(iter(_SIG_CACHE), _SIG_CACHE_EVICT_CHUNK)):
        del _SIG_CACHE[stale]
    _SIG_STATS["evictions"] += _SIG_CACHE_EVICT_CHUNK


@dataclass(frozen=True)
class KeyPair:
    """A signing identity: private seed plus derived public key/address."""

    seed: bytes
    public_key: bytes

    @classmethod
    def generate(cls, rng: random.Random) -> "KeyPair":
        """Create a fresh keypair from the experiment's deterministic RNG."""
        seed = rng.getrandbits(256).to_bytes(32, "big")
        return cls.from_seed(seed)

    @classmethod
    def from_seed(cls, seed: bytes) -> "KeyPair":
        if len(seed) != 32:
            raise ValueError("seed must be 32 bytes")
        public_key = hashlib.sha256(b"repro-pubkey" + seed).digest()
        _KEY_REGISTRY[public_key] = seed
        return cls(seed=seed, public_key=public_key)

    @cached
    def address(self) -> Address:
        """20-byte address: truncated hash of the public key (computed
        once — keypairs are immutable and addresses are read constantly)."""
        return address_of(self.public_key)

    def sign(self, message: bytes) -> bytes:
        """64-byte signature over ``message``.

        The signer *seeds the sigcache*: it just computed the only byte
        string that verifies over ``message``, so first-contact
        verification anywhere in this process is a cache hit instead of
        a recomputed HMAC pair — the "never re-verify what this process
        already validated" amortization of Bitcoin Core's sigcache.
        Behavior-neutral because the cached verdict is what verification
        would compute; that holds only for a pair whose public key is
        registered to *this* seed, so a hand-assembled
        ``KeyPair(mallory_seed, victim_public_key)`` seeds nothing.
        """
        mac, ext = _hmac_pair(self.seed, message)
        signature = mac + ext
        if _KEY_REGISTRY.get(self.public_key) == self.seed:
            if len(_SIG_CACHE) >= _SIG_CACHE_MAX:
                _evict_sig_cache()
            _SIG_CACHE[(self.public_key, message, signature)] = True
            _SIG_STATS["seeds"] += 1
        return signature


def verify_signature(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """Check that ``signature`` was produced by the holder of ``public_key``."""
    if len(signature) != SIGNATURE_SIZE:
        return False
    seed = _KEY_REGISTRY.get(public_key)
    if seed is None:
        return False
    cache_key = (public_key, message, signature)
    cached = _SIG_CACHE.get(cache_key)
    if cached is not None:
        _SIG_STATS["hits"] += 1
        return cached
    _SIG_STATS["misses"] += 1
    mac, ext = _hmac_pair(seed, message)
    ok = hmac.compare_digest(signature, mac + ext)
    if len(_SIG_CACHE) >= _SIG_CACHE_MAX:
        _evict_sig_cache()
    _SIG_CACHE[cache_key] = ok
    return ok


def verify_signatures_batch(
    items: Sequence[Tuple[bytes, bytes, bytes]],
) -> List[bool]:
    """Per-item verdicts for a burst of ``(public_key, message, signature)``.

    Agrees with :func:`verify_signature` item-for-item (mixed valid /
    tampered / unregistered-key bursts included — property-tested), but
    amortizes the work: one cache probe per item, one registry + HMAC
    proto-state resolution per *distinct key*, and an early mac-half
    comparison that skips the second HMAC for tampered signatures.
    Verified triples are inserted into the sigcache so every later
    replica's revalidation is a hit.
    """
    n = len(items)
    verdicts: List[bool] = [False] * n
    pending: List[Tuple[int, bytes, bytes, bytes, bytes]] = []
    registry_get = _KEY_REGISTRY.get
    cache_get = _SIG_CACHE.get
    stats = _SIG_STATS
    for index in range(n):
        public_key, message, signature = items[index]
        if len(signature) != SIGNATURE_SIZE:
            continue
        seed = registry_get(public_key)
        if seed is None:
            continue
        cached = cache_get((public_key, message, signature))
        if cached is not None:
            stats["hits"] += 1
            verdicts[index] = cached
            continue
        pending.append((index, seed, public_key, message, signature))
    if not pending:
        return verdicts

    sig_cache = _SIG_CACHE
    last_seed: Optional[bytes] = None
    inner = outer = None
    for index, seed, public_key, message, signature in pending:
        cache_key = (public_key, message, signature)
        cached = cache_get(cache_key)
        if cached is not None:
            # A duplicate earlier in this same burst already verified it.
            stats["hits"] += 1
            verdicts[index] = cached
            continue
        stats["misses"] += 1
        if seed is not last_seed:
            inner, outer = _hmac_protos(seed)
            last_seed = seed
        i = inner.copy()
        i.update(message)
        o = outer.copy()
        o.update(i.digest())
        mac = o.digest()
        if signature[:32] != mac:
            ok = False
        else:
            i = inner.copy()
            i.update(mac)
            i.update(message)
            o = outer.copy()
            o.update(i.digest())
            ok = signature[32:] == o.digest()
        if len(sig_cache) >= _SIG_CACHE_MAX:
            _evict_sig_cache()
        sig_cache[cache_key] = ok
        verdicts[index] = ok
    return verdicts


def prewarm_signatures(items: Iterable[Tuple[bytes, bytes, bytes]]) -> None:
    """Warm the sigcache for a burst so the scalar checks downstream hit.

    Behavior-neutral by construction: it only populates the cache that
    :func:`verify_signature` would populate anyway, so validation
    outcomes (and golden fingerprints) are byte-identical with or
    without the prewarm.
    """
    batch = items if isinstance(items, (list, tuple)) else list(items)
    if batch:
        verify_signatures_batch(batch)


def sigcache_counters() -> Dict[str, int]:
    """Process-global sigcache accounting, layer-counter namespaced."""
    return {
        "sigcache.hits": _SIG_STATS["hits"],
        "sigcache.misses": _SIG_STATS["misses"],
        "sigcache.evictions": _SIG_STATS["evictions"],
        "sigcache.seeds": _SIG_STATS["seeds"],
        "sigcache.entries": len(_SIG_CACHE),
    }


def clear_sigcache(reset_stats: bool = True) -> None:
    """Drop cached verdicts (and optionally the counters) — test/bench aid."""
    _SIG_CACHE.clear()
    _PROTO_CACHE.clear()
    if reset_stats:
        for stat in _SIG_STATS:
            _SIG_STATS[stat] = 0


@lru_cache(maxsize=65536)
def address_of(public_key: bytes) -> Address:
    """Address for a bare public key (no private seed required)."""
    digest = hashlib.sha256(b"repro-address" + public_key).digest()
    return Address(digest[:ADDRESS_SIZE])
