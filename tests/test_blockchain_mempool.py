"""Tests for repro.blockchain.mempool."""

import pytest

from repro.crypto.keys import KeyPair
from repro.blockchain.mempool import Mempool, MempoolLimits
from repro.blockchain.transaction import (
    build_transaction,
    make_coinbase,
    sign_account_transaction,
)


@pytest.fixture
def payments(rng):
    """Three UTXO payments with fees 1, 5, 10 (by construction)."""
    alice, bob = KeyPair.generate(rng), KeyPair.generate(rng)
    txs = []
    for i, fee in enumerate((1, 5, 10)):
        funding = make_coinbase(alice.address, 100, nonce=i)
        txs.append(
            (build_transaction(alice, [(funding.txid, 0, 100)], bob.address, 50, fee=fee), fee)
        )
    return txs


class TestAdmission:
    def test_add_and_contains(self, payments):
        pool = Mempool()
        tx, fee = payments[0]
        assert pool.add(tx, fee=fee)
        assert tx.txid in pool
        assert len(pool) == 1

    def test_duplicate_rejected(self, payments):
        pool = Mempool()
        tx, fee = payments[0]
        pool.add(tx, fee=fee)
        assert not pool.add(tx, fee=fee)

    def test_account_tx_fee_derived(self, rng):
        alice, bob = KeyPair.generate(rng), KeyPair.generate(rng)
        tx = sign_account_transaction(alice, 0, bob.address, 5, gas_price=2)
        pool = Mempool()
        pool.add(tx)
        assert pool._fees[tx.txid] == 21_000 * 2  # intrinsic gas * price

    def test_remove(self, payments):
        pool = Mempool()
        tx, fee = payments[0]
        pool.add(tx, fee=fee)
        assert pool.remove(tx.txid) is tx
        assert tx.txid not in pool


class TestSelection:
    def test_fee_rate_ordering(self, payments):
        pool = Mempool()
        for tx, fee in payments:
            pool.add(tx, fee=fee)
        selected = pool.select_by_size(10**6)
        fees = [pool._fees[tx.txid] for tx in selected]
        assert fees == sorted(fees, reverse=True)

    def test_size_cap_respected(self, payments):
        pool = Mempool()
        for tx, fee in payments:
            pool.add(tx, fee=fee)
        one_tx_size = payments[0][0].size_bytes
        selected = pool.select_by_size(one_tx_size)
        assert len(selected) == 1

    def test_gas_cap_respected(self, rng):
        alice, bob = KeyPair.generate(rng), KeyPair.generate(rng)
        pool = Mempool()
        for n in range(5):
            pool.add(sign_account_transaction(alice, n, bob.address, 1))
        selected = pool.select_by_gas(21_000 * 2)
        assert len(selected) == 2

    def test_gas_selection_prefers_high_price(self, rng):
        alice, bob = KeyPair.generate(rng), KeyPair.generate(rng)
        pool = Mempool()
        cheap = sign_account_transaction(alice, 0, bob.address, 1, gas_price=1)
        dear = sign_account_transaction(alice, 1, bob.address, 1, gas_price=9)
        pool.add(cheap)
        pool.add(dear)
        assert pool.select_by_gas(21_000)[0].txid == dear.txid


class TestLifecycle:
    def test_remove_included(self, payments):
        pool = Mempool()
        for tx, fee in payments:
            pool.add(tx, fee=fee)
        removed = pool.remove_included([payments[0][0], payments[1][0]])
        assert removed == 2 and len(pool) == 1

    def test_readmit_skips_coinbase(self, payments, rng):
        pool = Mempool()
        cb = make_coinbase(KeyPair.generate(rng).address, 50)
        readmitted = pool.readmit([cb, payments[0][0]])
        assert readmitted == 1
        assert cb.txid not in pool

    def test_evict_keeps_best(self, payments):
        pool = Mempool()
        for tx, fee in payments:
            pool.add(tx, fee=fee)
        dropped = pool.evict(keep=1)
        assert dropped == 2
        # Survivor is the fee-10 transaction.
        survivor = pool.pending()[0]
        assert pool._fees[survivor.txid] == 10

    def test_size_bytes(self, payments):
        pool = Mempool()
        tx, fee = payments[0]
        pool.add(tx, fee=fee)
        assert pool.size_bytes() == tx.size_bytes


class TestFeeMarket:
    def test_readmit_preserves_fee(self, payments):
        pool = Mempool()
        tx, fee = payments[2]
        pool.add(tx, fee=fee)
        pool.remove(tx.txid)
        assert pool.readmit([tx]) == 1
        assert pool._fees[tx.txid] == fee

    def test_min_fee_rate_floor(self, payments):
        pool = Mempool(limits=MempoolLimits(min_fee_rate=1.0))
        cheap, _ = payments[0]
        assert not pool.add(cheap, fee=1)
        assert pool.total_rejected_fee == 1
        dear, _ = payments[2]
        assert pool.add(dear, fee=dear.size_bytes * 2)

    def test_count_cap_evicts_cheapest(self, payments):
        pool = Mempool(limits=MempoolLimits(max_count=2))
        for tx, fee in payments:  # fees 1, 5, 10 arrive in that order
            assert pool.add(tx, fee=fee)
        assert len(pool) == 2
        assert payments[0][0].txid not in pool
        assert pool.total_dropped == 1

    def test_full_pool_rejects_underbidder(self, payments):
        pool = Mempool(limits=MempoolLimits(max_count=2))
        pool.add(payments[1][0], fee=5)
        pool.add(payments[2][0], fee=10)
        assert not pool.add(payments[0][0], fee=1)
        assert pool.total_rejected_full == 1
        assert len(pool) == 2

    def test_byte_cap_enforced(self, payments):
        one_tx = payments[0][0].size_bytes
        pool = Mempool(limits=MempoolLimits(max_bytes=one_tx))
        pool.add(payments[0][0], fee=1)
        assert pool.add(payments[2][0], fee=10)  # outbids, evicts
        assert len(pool) == 1
        assert pool.size_bytes() <= one_tx

    def test_byte_total_tracks_lifecycle(self, payments):
        pool = Mempool()
        for tx, fee in payments:
            pool.add(tx, fee=fee)
        assert pool.size_bytes() == sum(tx.size_bytes for tx, _ in payments)
        dropped_before = pool.total_dropped
        pool.evict(keep=1)
        assert pool.total_dropped == dropped_before + 2
        survivor = pool.pending()[0]
        assert pool.size_bytes() == survivor.size_bytes
        pool.remove(survivor.txid)
        assert pool.size_bytes() == 0

    def test_counters_exported(self, payments):
        pool = Mempool()
        tx, fee = payments[0]
        pool.add(tx, fee=fee)
        counters = pool.counters()
        assert counters["mempool.accepted"] == 1.0
        assert counters["mempool.backlog"] == 1.0
        assert counters["mempool.backlog_bytes"] == float(tx.size_bytes)


class TestReplaceByFee:
    def test_same_nonce_outbid_replaces(self, rng):
        alice, bob = KeyPair.generate(rng), KeyPair.generate(rng)
        pool = Mempool()
        original = sign_account_transaction(alice, 0, bob.address, 5, gas_price=2)
        bump = sign_account_transaction(alice, 0, bob.address, 7, gas_price=5)
        assert pool.add(original)
        assert pool.add(bump)
        assert len(pool) == 1
        assert bump.txid in pool and original.txid not in pool
        assert pool.total_replaced == 1

    def test_same_nonce_underbid_rejected(self, rng):
        alice, bob = KeyPair.generate(rng), KeyPair.generate(rng)
        pool = Mempool()
        original = sign_account_transaction(alice, 0, bob.address, 5, gas_price=3)
        equal_bid = sign_account_transaction(alice, 0, bob.address, 7, gas_price=3)
        pool.add(original)
        assert not pool.add(equal_bid)
        assert pool.total_rejected_replacement == 1
        assert original.txid in pool and len(pool) == 1

    def test_utxo_conflict_outbid_replaces(self, rng):
        alice, bob = KeyPair.generate(rng), KeyPair.generate(rng)
        funding = make_coinbase(alice.address, 100)
        first = build_transaction(
            alice, [(funding.txid, 0, 100)], bob.address, 50, fee=1
        )
        second = build_transaction(
            alice, [(funding.txid, 0, 100)], bob.address, 40, fee=20
        )
        pool = Mempool()
        assert pool.add(first, fee=1)
        assert pool.add(second, fee=20)
        assert len(pool) == 1 and second.txid in pool

    def test_utxo_conflict_underbid_rejected(self, rng):
        alice, bob = KeyPair.generate(rng), KeyPair.generate(rng)
        funding = make_coinbase(alice.address, 100)
        rich = build_transaction(
            alice, [(funding.txid, 0, 100)], bob.address, 40, fee=20
        )
        poor = build_transaction(
            alice, [(funding.txid, 0, 100)], bob.address, 50, fee=1
        )
        pool = Mempool()
        pool.add(rich, fee=20)
        assert not pool.add(poor, fee=1)
        assert rich.txid in pool and len(pool) == 1

    def test_replacement_factor_raises_the_bar(self, rng):
        alice, bob = KeyPair.generate(rng), KeyPair.generate(rng)
        pool = Mempool(limits=MempoolLimits(replacement_factor=2.0))
        original = sign_account_transaction(alice, 0, bob.address, 5, gas_price=4)
        weak = sign_account_transaction(alice, 0, bob.address, 6, gas_price=7)
        strong = sign_account_transaction(alice, 0, bob.address, 6, gas_price=9)
        pool.add(original)
        assert not pool.add(weak)  # 7 <= 4 * 2
        assert pool.add(strong)  # 9 > 4 * 2
        assert strong.txid in pool and len(pool) == 1


class TestRateHeap:
    """The eviction heap stays proportional to what the pool holds:
    mined, evicted and replaced entries leave stale records behind, which
    are compacted away, and an unbounded pool keeps no heap at all."""

    @pytest.mark.parametrize("limits", [MempoolLimits(max_count=32), MempoolLimits()],
                             ids=["bounded", "unbounded"])
    def test_add_mine_cycles_keep_heap_bounded(self, rng, limits):
        alice, bob = KeyPair.generate(rng), KeyPair.generate(rng)
        pool = Mempool(limits=limits)
        for nonce in range(10_000):
            pool.add(sign_account_transaction(
                alice, nonce, bob.address, 1, gas_price=1 + nonce * 7919 % 13))
            if nonce % 5 == 4:
                pool.remove_included(pool.pending()[:4])
            assert len(pool._rate_heap) <= 2 * len(pool) + 64
        if limits.bounded:
            assert pool.total_dropped > 0  # eviction ran through compactions
            rate, txid = pool._cheapest()
            assert rate == min(pool._fee_rate(t) for t in pool._txs)
        else:
            assert pool._rate_heap == []
