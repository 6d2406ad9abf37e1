"""Tests for repro.blockchain.state and gas (Ethereum account model)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import InsufficientFundsError, ValidationError
from repro.crypto.keys import KeyPair
from repro.blockchain.gas import (
    GAS_LIMIT_BOUND_DIVISOR,
    MIN_GAS_LIMIT,
    TX_BASE_GAS,
    adjust_gas_limit,
    intrinsic_gas,
)
from repro.blockchain.state import AccountRecord, AccountState
from repro.blockchain.transaction import sign_account_transaction


@pytest.fixture
def actors(rng):
    return KeyPair.generate(rng), KeyPair.generate(rng), KeyPair.generate(rng)


class TestGas:
    def test_plain_transfer_costs_base_gas(self, actors):
        alice, bob, _ = actors
        tx = sign_account_transaction(alice, 0, bob.address, 1)
        assert intrinsic_gas(tx) == TX_BASE_GAS

    def test_data_bytes_priced(self, actors):
        alice, bob, _ = actors
        tx = sign_account_transaction(
            alice, 0, bob.address, 1, data=b"\x00\x01\x02"
        )
        assert intrinsic_gas(tx) == TX_BASE_GAS + 4 + 68 + 68

    def test_limit_steps_are_bounded(self):
        parent = 8_000_000
        step = parent // GAS_LIMIT_BOUND_DIVISOR
        assert adjust_gas_limit(parent, 0, 100_000_000) == parent + step
        assert adjust_gas_limit(parent, 0, 1_000) == max(parent - step, MIN_GAS_LIMIT)

    def test_limit_converges_to_desired(self):
        limit = 8_000_000
        for _ in range(3000):
            limit = adjust_gas_limit(limit, 0, 10_000_000)
        assert limit == 10_000_000

    def test_limit_floor(self):
        assert adjust_gas_limit(MIN_GAS_LIMIT, 0, 1) == MIN_GAS_LIMIT

    def test_below_floor_parent_rejected(self):
        with pytest.raises(ValueError):
            adjust_gas_limit(100, 0, 100)


records = st.builds(
    AccountRecord,
    balance=st.integers(0, 2**128 - 1),
    nonce=st.integers(0, 2**64 - 1),
    code=st.binary(max_size=40),
)


class TestAccountRecordCodec:
    @settings(max_examples=60, deadline=None)
    @given(record=records)
    def test_round_trip(self, record):
        assert AccountRecord.deserialize(record.serialize()) == record

    @settings(max_examples=60, deadline=None)
    @given(record=records, data=st.data())
    def test_truncated_encoding_rejected(self, record, data):
        raw = record.serialize()
        cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
        with pytest.raises(ValidationError):
            AccountRecord.deserialize(raw[:cut])

    @settings(max_examples=60, deadline=None)
    @given(record=records, junk=st.binary(min_size=1, max_size=8))
    def test_trailing_bytes_rejected(self, record, junk):
        with pytest.raises(ValidationError):
            AccountRecord.deserialize(record.serialize() + junk)


class TestAccountState:
    def test_credit_and_balance(self, actors):
        alice, _, _ = actors
        state = AccountState()
        state.credit(alice.address, 500)
        assert state.balance(alice.address) == 500
        assert state.nonce(alice.address) == 0

    def test_transfer_moves_value_and_fees(self, actors):
        alice, bob, miner = actors
        state = AccountState()
        state.credit(alice.address, 100_000)
        tx = sign_account_transaction(alice, 0, bob.address, 1_000, gas_price=1)
        receipt = state.apply_transaction(tx, miner.address)
        assert receipt.success and receipt.gas_used == TX_BASE_GAS
        assert state.balance(bob.address) == 1_000
        assert state.balance(miner.address) == TX_BASE_GAS
        assert state.balance(alice.address) == 100_000 - 1_000 - TX_BASE_GAS
        assert state.nonce(alice.address) == 1

    def test_nonce_replay_rejected(self, actors):
        alice, bob, miner = actors
        state = AccountState()
        state.credit(alice.address, 100_000)
        tx = sign_account_transaction(alice, 0, bob.address, 10, gas_price=0)
        state.apply_transaction(tx, miner.address)
        with pytest.raises(ValidationError):
            state.apply_transaction(tx, miner.address)  # same nonce

    def test_future_nonce_rejected(self, actors):
        alice, bob, miner = actors
        state = AccountState()
        state.credit(alice.address, 100_000)
        tx = sign_account_transaction(alice, 5, bob.address, 10)
        with pytest.raises(ValidationError):
            state.apply_transaction(tx, miner.address)

    def test_underfunded_rejected(self, actors):
        alice, bob, miner = actors
        state = AccountState()
        state.credit(alice.address, 10)
        tx = sign_account_transaction(alice, 0, bob.address, 5, gas_price=1)
        with pytest.raises(InsufficientFundsError):
            state.apply_transaction(tx, miner.address)

    def test_gas_limit_below_intrinsic_rejected(self, actors):
        alice, bob, miner = actors
        state = AccountState()
        state.credit(alice.address, 10**9)
        tx = sign_account_transaction(alice, 0, bob.address, 1, gas_limit=100)
        with pytest.raises(ValidationError):
            state.apply_transaction(tx, miner.address)

    def test_total_supply_conserved_plus_reward(self, actors):
        alice, bob, miner = actors
        state = AccountState()
        state.credit(alice.address, 10**6)
        txs = [
            sign_account_transaction(alice, n, bob.address, 100, gas_price=1)
            for n in range(3)
        ]
        state.apply_block_transactions(txs, miner.address, block_reward=500)
        assert state.total_supply() == 10**6 + 500

    def test_receipts_cumulative_gas(self, actors):
        alice, bob, miner = actors
        state = AccountState()
        state.credit(alice.address, 10**9)
        txs = [
            sign_account_transaction(alice, n, bob.address, 1, gas_price=0)
            for n in range(3)
        ]
        receipts, total = state.apply_block_transactions(txs, miner.address, 0)
        assert total == 3 * TX_BASE_GAS
        assert [r.cumulative_gas for r in receipts] == [
            TX_BASE_GAS, 2 * TX_BASE_GAS, 3 * TX_BASE_GAS
        ]


class TestStateHistory:
    def test_rollback_restores_balances(self, actors):
        alice, bob, miner = actors
        state = AccountState()
        state.credit(alice.address, 10**6)
        checkpoint = state.checkpoint()
        tx = sign_account_transaction(alice, 0, bob.address, 1234, gas_price=0)
        state.apply_transaction(tx, miner.address)
        state.rollback_to(checkpoint)
        assert state.balance(alice.address) == 10**6
        assert state.balance(bob.address) == 0
        assert state.nonce(alice.address) == 0

    def test_root_deterministic_for_same_state(self, actors):
        alice, bob, miner = actors

        def build():
            state = AccountState()
            state.credit(alice.address, 10**6)
            tx = sign_account_transaction(alice, 0, bob.address, 10, gas_price=0)
            state.apply_transaction(tx, miner.address)
            return state.root_hash

        assert build() == build()

    def test_prune_history_keeps_live_state(self, actors):
        alice, bob, miner = actors
        state = AccountState()
        state.credit(alice.address, 10**9)
        for n in range(10):
            tx = sign_account_transaction(alice, n, bob.address, 1, gas_price=0)
            state.apply_transaction(tx, miner.address)
            state.checkpoint()  # a version is stored per root read, not per write
        store_before = state.store_size_bytes()
        freed = state.prune_history()
        assert freed > 0
        assert state.store_size_bytes() == store_before - freed
        assert state.balance(bob.address) == 10
        assert state.live_size_bytes() == state.store_size_bytes()

    def test_prune_history_keeps_the_current_root_it_was_not_given(self, actors):
        """Keeping only an older root used to drop the live version: the
        next write and root read raised ``KeyError`` (trie node pruned)."""
        alice, bob, _miner = actors
        state = AccountState()
        state.credit(alice.address, 5)
        older = state.root_hash
        state.credit(bob.address, 7)
        current = state.root_hash
        state.prune_history([older])
        assert state.root_hash == current
        state.credit(alice.address, 1)
        assert state.root_hash != current
        assert (state.balance(alice.address), state.balance(bob.address)) == (6, 7)
        state.rollback_to(older)  # the kept root is still whole
        assert (state.balance(alice.address), state.balance(bob.address)) == (5, 0)
