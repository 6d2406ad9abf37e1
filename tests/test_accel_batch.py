"""Sigcache bounds, cloned-state HMAC, burst ingest, coalesced delivery.

Everything here pins the amortized paths to their one-at-a-time
semantics: the cloned-state HMAC must equal the stdlib's, the sigcache
must stay bounded under overflow (chunk eviction, not wholesale clears)
and never hold a verdict nobody verified, ``ingest_batch`` must converge
to the same ledger as scalar ingest in any arrival order, and a lossy
gossip run and a whole E14 simulation must reproduce their recorded
goldens.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

import repro.crypto.keys as keys
from repro.common.memo import cached
from repro.crypto.keys import (
    KeyPair,
    clear_sigcache,
    sigcache_counters,
    verify_signature,
)


@pytest.fixture(autouse=True)
def _fresh_sigcache():
    clear_sigcache()
    yield
    clear_sigcache()


class TestClonedStateHmac:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.binary(min_size=32, max_size=32),
           message=st.one_of(st.just(b""), st.binary(max_size=48),
                             st.binary(min_size=65, max_size=300)))
    def test_hmac_pair_equals_stdlib(self, seed, message):
        mac = hmac.new(seed, message, hashlib.sha256).digest()
        ext = hmac.new(seed, mac + message, hashlib.sha256).digest()
        assert keys._hmac_pair(seed, message) == (mac, ext)

    def test_import_self_test_raises_on_disagreement(self, monkeypatch):
        from repro.crypto import accel

        accel._self_test()  # agrees on this interpreter
        monkeypatch.setattr(hmac, "new",
                            lambda *a, **k: hashlib.sha256(b"different"))
        with pytest.raises(ImportError):
            accel._self_test()
        assert accel.active_backend() == "batch"


class TestForgedKeyPair:
    """A ``KeyPair`` assembled from an attacker's seed and a victim's
    public key signs with the wrong seed: nothing may verify, and the
    signer-side sigcache seeding must not plant a verdict for it."""

    def _forge(self):
        victim = KeyPair.from_seed(b"\x11" * 32)
        mallory = KeyPair.from_seed(b"\x66" * 32)
        forged = KeyPair(seed=mallory.seed, public_key=victim.public_key)
        clear_sigcache()
        return victim, (victim.public_key, b"pay mallory", forged.sign(b"pay mallory"))

    def test_scalar_rejects_and_nothing_was_seeded(self):
        victim, triple = self._forge()
        assert sigcache_counters()["sigcache.seeds"] == 0
        assert triple not in keys._SIG_CACHE
        assert verify_signature(*triple) is False
        # The honest from_seed signer still gets its first-contact hit.
        assert verify_signature(victim.public_key, b"pay bob", victim.sign(b"pay bob"))
        assert verify_signature(*triple) is False  # the rejection is cached
        assert sigcache_counters()["sigcache.misses"] == 1


class TestSigcacheBounds:
    def test_overflow_evicts_chunk_not_everything(self, monkeypatch):
        monkeypatch.setattr(keys, "_SIG_CACHE_MAX", 64)
        monkeypatch.setattr(keys, "_SIG_CACHE_EVICT_CHUNK", 8)
        key = KeyPair.from_seed(b"\x03" * 32)
        for i in range(200):
            message = b"evict:%d" % i
            sig = key.sign(message)
            verify_signature(key.public_key, message, sig)
            assert len(keys._SIG_CACHE) <= 64
        counters = sigcache_counters()
        assert counters["sigcache.evictions"] > 0
        assert counters["sigcache.evictions"] % 8 == 0
        # The cache survived overflow with a warm majority, not a clear.
        assert len(keys._SIG_CACHE) > 32

    def test_counters_flow(self):
        key = KeyPair.from_seed(b"\x04" * 32)
        sig = key.sign(b"count")
        clear_sigcache()
        assert verify_signature(key.public_key, b"count", sig)
        assert verify_signature(key.public_key, b"count", sig)
        counters = sigcache_counters()
        assert counters["sigcache.misses"] == 1
        assert counters["sigcache.hits"] == 1
        assert counters["sigcache.entries"] == 1

    def test_signing_seeds_cache_under_accel(self):
        key = KeyPair.from_seed(b"\x05" * 32)
        sig = key.sign(b"seeded")
        counters = sigcache_counters()
        assert counters["sigcache.seeds"] >= 1
        # First-contact verification is a hit: the signer already proved
        # this triple.
        assert verify_signature(key.public_key, b"seeded", sig)
        assert sigcache_counters()["sigcache.misses"] == 0

    def test_unregistered_key_never_cached(self):
        stranger_pk = b"\x99" * 32
        assert not verify_signature(stranger_pk, b"msg", b"\x00" * 64)
        assert sigcache_counters()["sigcache.entries"] == 0


class TestMemoDescriptor:
    def test_computes_once_and_returns_identity(self):
        calls = []

        @dataclass(frozen=True)
        class Box:
            value: int

            @cached
            def doubled(self):
                calls.append(1)
                return self.value * 2

        box = Box(21)
        assert box.doubled == 42
        assert box.doubled is box.doubled
        assert len(calls) == 1

    def test_class_access_returns_descriptor(self):
        @dataclass(frozen=True)
        class Box:
            value: int

            @cached
            def doubled(self):
                return self.value * 2

        assert isinstance(Box.doubled, cached)

    def test_instances_do_not_share(self):
        @dataclass(frozen=True)
        class Box:
            value: int

            @cached
            def doubled(self):
                return self.value * 2

        assert Box(1).doubled == 2
        assert Box(5).doubled == 10


class TestIngestBatch:
    def _source(self, rounds: int):
        from repro.perf.suite import _build_source_lattice

        return _build_source_lattice(accounts_n=8, rounds=rounds)

    def _replica(self, params, genesis):
        from repro.dag.node import NanoNode

        replica = NanoNode("replica", params=params, auto_receive=False)
        replica.lattice.install_genesis(genesis)
        return replica

    def test_batch_matches_scalar_in_shuffled_order(self):
        params, lattice, genesis, ordered = self._source(rounds=40)
        shuffled = list(ordered)
        random.Random(9).shuffle(shuffled)

        scalar = self._replica(params, genesis)
        for block in shuffled:
            scalar.ingest_quietly(block)
        batched = self._replica(params, genesis)
        batched.ingest_batch(
            shuffled, skip=lambda b: b.block_hash in batched.lattice
        )

        assert scalar.lattice.block_count() == lattice.block_count()
        assert batched.lattice.block_count() == lattice.block_count()
        assert len(scalar.intake) == 0
        assert len(batched.intake) == 0

    def test_retry_cascade_survives_thousands_of_parked_blocks(self):
        """Regression: the revival cascade is iterative, so a burst that
        parks every block behind one dependency (newest-first arrival)
        must integrate without tripping the interpreter recursion limit
        (~1200 blocks ≈ 3600 frames under the old mutual recursion)."""
        params, lattice, genesis, ordered = self._source(rounds=600)
        replica = self._replica(params, genesis)
        for block in reversed(ordered):
            replica.ingest_quietly(block)
        assert replica.lattice.block_count() == lattice.block_count()
        assert len(replica.intake) == 0

    def test_batch_returns_direct_integrations(self):
        params, lattice, genesis, ordered = self._source(rounds=10)
        replica = self._replica(params, genesis)
        integrated = replica.ingest_batch(
            ordered, skip=lambda b: b.block_hash in replica.lattice
        )
        # Dependency-safe order: every block integrates directly.
        assert integrated == len(ordered)
        assert replica.lattice.block_count() == lattice.block_count()


class TestDeliveryCoalescing:
    def _fingerprint(self, seed: int = 13):
        from repro.net.link import LinkParams
        from repro.net.message import Message
        from repro.net.network import Network, RetransmitPolicy
        from repro.net.node import NetworkNode
        from repro.net.topology import small_world_topology
        from repro.sim.simulator import Simulator

        link = LinkParams(latency_s=0.05, jitter_s=0.02,
                          bandwidth_bps=50_000_000.0, loss_probability=0.08)
        sim = Simulator(seed=seed)
        net = Network(sim, retransmit=RetransmitPolicy(max_attempts=4))
        nodes = small_world_topology(net, 12, NetworkNode,
                                     link_params=link, seed=seed)
        for i in range(30):
            origin = nodes[i % len(nodes)]
            message = Message(kind="blk", payload=i, size_bytes=300)
            sim.schedule_at(
                (i // len(nodes)) * 0.25,  # same-timestamp bursts
                (lambda o=origin, m=message: net.gossip(o.node_id, m)),
            )
        sim.run()
        return {
            "events": sim.events_processed,
            "now": round(sim.now, 9),
            "delivered": net.messages_delivered,
            "lost": net.messages_lost,
            "bytes": net.bytes_transferred,
            "received": sum(n.messages_received for n in nodes),
        }

    def test_coalesced_run_matches_golden(self):
        """Recorded from the per-delivery (uncoalesced) dispatch this
        path replaced; both gave exactly these numbers."""
        assert self._fingerprint() == {
            "events": 392, "now": 3.47120882, "delivered": 330,
            "lost": 32, "bytes": 106920, "received": 330,
        }

    def test_coalesced_is_deterministic(self):
        assert self._fingerprint() == self._fingerprint()


@pytest.mark.slow
class TestWholeRunGolden:
    """A whole simulation reproduces the metrics recorded when signing,
    delivery and ingest still had a scalar twin (both gave these)."""

    def test_e14_metrics_match_golden(self):
        from repro.core.experiment import EXPERIMENTS

        runner = EXPERIMENTS["E14"].load_runner()
        result = runner({"offered_tps": 40.0, "processing_tps": 0.0,
                         "duration_s": 6.0}, 5)
        assert result["metrics"] == {
            "settled_over_offered": 0.9958333333333333,
            "settled_tps": 39.833333333333336,
        }
