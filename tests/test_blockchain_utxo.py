"""Tests for repro.blockchain.utxo."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import DoubleSpendError, ValidationError
from repro.crypto.keys import KeyPair
from repro.blockchain.transaction import build_transaction, make_coinbase
from repro.blockchain.utxo import UTXOSet


@pytest.fixture
def funded(rng):
    """(utxo_set, alice, bob) with alice holding one 100-value output."""
    utxo = UTXOSet()
    alice, bob = KeyPair.generate(rng), KeyPair.generate(rng)
    coinbase = make_coinbase(alice.address, 100)
    utxo.apply_transaction(coinbase)
    return utxo, alice, bob, coinbase


class TestApply:
    def test_coinbase_creates_outputs(self, funded):
        utxo, alice, _, _ = funded
        assert utxo.balance(alice.address) == 100
        assert len(utxo) == 1

    def test_spend_moves_value(self, funded):
        utxo, alice, bob, coinbase = funded
        tx = build_transaction(alice, utxo.spendable(alice.address), bob.address, 30)
        utxo.apply_transaction(tx)
        assert utxo.balance(alice.address) == 70
        assert utxo.balance(bob.address) == 30

    def test_double_spend_rejected(self, funded):
        utxo, alice, bob, coinbase = funded
        spendable = utxo.spendable(alice.address)
        tx1 = build_transaction(alice, spendable, bob.address, 30)
        tx2 = build_transaction(alice, spendable, bob.address, 40)
        utxo.apply_transaction(tx1)
        with pytest.raises(DoubleSpendError):
            utxo.apply_transaction(tx2)

    def test_unknown_input_rejected(self, funded):
        utxo, alice, bob, coinbase = funded
        tx = build_transaction(alice, [(coinbase.txid, 5, 100)], bob.address, 10)
        with pytest.raises(DoubleSpendError):
            utxo.apply_transaction(tx)

    def test_failed_apply_leaves_set_unchanged(self, funded):
        utxo, alice, bob, coinbase = funded
        before = utxo.balance(alice.address)
        tx = build_transaction(alice, [(coinbase.txid, 9, 100)], bob.address, 10)
        with pytest.raises(DoubleSpendError):
            utxo.apply_transaction(tx)
        assert utxo.balance(alice.address) == before

    def test_value_conservation(self, funded):
        utxo, alice, bob, _ = funded
        total_before = utxo.total_value()
        tx = build_transaction(alice, utxo.spendable(alice.address), bob.address, 25)
        utxo.apply_transaction(tx)
        assert utxo.total_value() == total_before  # fee = 0 here


class TestRevert:
    def test_revert_restores_exact_state(self, funded):
        utxo, alice, bob, _ = funded
        tx = build_transaction(alice, utxo.spendable(alice.address), bob.address, 30)
        spent = utxo.apply_transaction(tx)
        utxo.revert_transaction(tx, spent)
        assert utxo.balance(alice.address) == 100
        assert utxo.balance(bob.address) == 0

    def test_revert_chain_of_spends(self, funded):
        utxo, alice, bob, _ = funded
        tx1 = build_transaction(alice, utxo.spendable(alice.address), bob.address, 30)
        spent1 = utxo.apply_transaction(tx1)
        tx2 = build_transaction(bob, utxo.spendable(bob.address), alice.address, 10)
        spent2 = utxo.apply_transaction(tx2)
        utxo.revert_transaction(tx2, spent2)
        utxo.revert_transaction(tx1, spent1)
        assert utxo.balance(alice.address) == 100
        assert utxo.balance(bob.address) == 0


class TestFees:
    def test_fee_is_input_minus_output(self, funded):
        utxo, alice, bob, _ = funded
        tx = build_transaction(
            alice, utxo.spendable(alice.address), bob.address, 30, fee=7
        )
        assert utxo.fee(tx) == 7

    def test_coinbase_fee_zero(self, funded):
        utxo, alice, _, coinbase = funded
        assert utxo.fee(coinbase) == 0

    def test_fee_of_unknown_input_raises(self, funded, rng):
        utxo, alice, bob, _ = funded
        other = UTXOSet()
        cb = make_coinbase(alice.address, 50, nonce=9)
        other.apply_transaction(cb)
        tx = build_transaction(alice, [(cb.txid, 0, 50)], bob.address, 10)
        with pytest.raises(ValidationError):
            utxo.fee(tx)


class TestSpendable:
    def test_sorted_and_complete(self, rng):
        utxo = UTXOSet()
        alice = KeyPair.generate(rng)
        for n in range(3):
            utxo.apply_transaction(make_coinbase(alice.address, 10 + n, nonce=n))
        spendable = utxo.spendable(alice.address)
        assert len(spendable) == 3
        assert sum(v for _, _, v in spendable) == 33

    def test_empty_for_stranger(self, funded, rng):
        utxo, _, _, _ = funded
        stranger = KeyPair.generate(rng)
        assert utxo.spendable(stranger.address) == []
        assert utxo.balance(stranger.address) == 0


@settings(max_examples=25, deadline=None)
@given(
    amounts=st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=8),
)
def test_apply_revert_round_trip_property(amounts):
    """Property: applying a chain of random sends then reverting them in
    reverse restores balances and total value exactly."""
    import random as _random

    rng = _random.Random(42)
    utxo = UTXOSet()
    alice, bob = KeyPair.generate(rng), KeyPair.generate(rng)
    utxo.apply_transaction(make_coinbase(alice.address, 10_000))
    undos = []
    for amount in amounts:
        spendable = utxo.spendable(alice.address)
        tx = build_transaction(alice, spendable, bob.address, amount)
        undos.append((tx, utxo.apply_transaction(tx)))
    for tx, spent in reversed(undos):
        utxo.revert_transaction(tx, spent)
    assert utxo.balance(alice.address) == 10_000
    assert utxo.balance(bob.address) == 0
    assert utxo.total_value() == 10_000
