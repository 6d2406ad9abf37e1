"""Tests for repro.blockchain.transaction."""

from dataclasses import replace

import pytest

from repro.common.errors import ValidationError
from repro.common.types import Address, Hash
from repro.crypto.keys import KeyPair, clear_sigcache, sigcache_counters
from repro.blockchain.transaction import (
    AccountTransaction,
    Transaction,
    TxInput,
    TxOutput,
    build_transaction,
    make_coinbase,
    sign_account_transaction,
)


def alice_bob(rng):
    return KeyPair.generate(rng), KeyPair.generate(rng)


class TestTxOutput:
    def test_negative_amount_rejected(self):
        with pytest.raises(ValidationError):
            TxOutput(amount=-1, recipient=Address.zero())

    def test_serialization_length(self):
        out = TxOutput(amount=5, recipient=Address.zero())
        assert len(out.serialize()) == 8 + 20


class TestCoinbase:
    def test_is_coinbase(self, rng):
        cb = make_coinbase(KeyPair.generate(rng).address, 50)
        assert cb.is_coinbase
        assert cb.inputs[0].is_coinbase

    def test_nonce_differentiates_txids(self, rng):
        addr = KeyPair.generate(rng).address
        assert make_coinbase(addr, 50, nonce=1).txid != make_coinbase(addr, 50, nonce=2).txid

    def test_recipient_differentiates_txids(self, rng):
        a, b = alice_bob(rng)
        assert make_coinbase(a.address, 50).txid != make_coinbase(b.address, 50).txid


class TestBuildTransaction:
    def test_simple_payment_with_change(self, rng):
        alice, bob = alice_bob(rng)
        funding = make_coinbase(alice.address, 100)
        tx = build_transaction(alice, [(funding.txid, 0, 100)], bob.address, 30, fee=5)
        assert tx.total_output() == 95  # 30 to bob + 65 change
        amounts = {o.recipient: o.amount for o in tx.outputs}
        assert amounts[bob.address] == 30
        assert amounts[alice.address] == 65

    def test_exact_spend_no_change(self, rng):
        alice, bob = alice_bob(rng)
        funding = make_coinbase(alice.address, 100)
        tx = build_transaction(alice, [(funding.txid, 0, 100)], bob.address, 100)
        assert len(tx.outputs) == 1

    def test_signatures_verify(self, rng):
        alice, bob = alice_bob(rng)
        funding = make_coinbase(alice.address, 100)
        tx = build_transaction(alice, [(funding.txid, 0, 100)], bob.address, 10)
        assert tx.verify_input_signatures()

    def test_insufficient_funds(self, rng):
        alice, bob = alice_bob(rng)
        funding = make_coinbase(alice.address, 100)
        with pytest.raises(ValidationError):
            build_transaction(alice, [(funding.txid, 0, 100)], bob.address, 200)

    def test_fee_counted_against_funds(self, rng):
        alice, bob = alice_bob(rng)
        funding = make_coinbase(alice.address, 100)
        with pytest.raises(ValidationError):
            build_transaction(alice, [(funding.txid, 0, 100)], bob.address, 100, fee=1)

    def test_multi_input_selection(self, rng):
        alice, bob = alice_bob(rng)
        f1 = make_coinbase(alice.address, 60, nonce=1)
        f2 = make_coinbase(alice.address, 60, nonce=2)
        tx = build_transaction(
            alice, [(f1.txid, 0, 60), (f2.txid, 0, 60)], bob.address, 100
        )
        assert len(tx.inputs) == 2

    def test_rejects_nonpositive_amount(self, rng):
        alice, bob = alice_bob(rng)
        with pytest.raises(ValidationError):
            build_transaction(alice, [], bob.address, 0)

    def test_tampering_invalidates_signature(self, rng):
        alice, bob = alice_bob(rng)
        funding = make_coinbase(alice.address, 100)
        tx = build_transaction(alice, [(funding.txid, 0, 100)], bob.address, 10)
        tampered = Transaction(
            inputs=tx.inputs,
            outputs=(TxOutput(amount=90, recipient=bob.address),),
        )
        assert not tampered.verify_input_signatures()

    def test_txid_changes_with_content(self, rng):
        alice, bob = alice_bob(rng)
        funding = make_coinbase(alice.address, 100)
        t1 = build_transaction(alice, [(funding.txid, 0, 100)], bob.address, 10)
        t2 = build_transaction(alice, [(funding.txid, 0, 100)], bob.address, 11)
        assert t1.txid != t2.txid

    def test_structure_constraints(self):
        with pytest.raises(ValidationError):
            Transaction(inputs=(), outputs=(TxOutput(1, Address.zero()),))
        with pytest.raises(ValidationError):
            Transaction(
                inputs=(TxInput(Hash.zero(), 0xFFFFFFFF),), outputs=()
            )


def spend_from(owners, recipient):
    """One input per key in ``owners``, each signed by its owner: inputs
    of one owner carry the same key and signature."""
    funding = [make_coinbase(key.address, 100, nonce=n) for n, key in enumerate(owners)]
    unsigned = Transaction(
        inputs=tuple(TxInput(f.txid, 0, key.public_key) for f, key in zip(funding, owners)),
        outputs=(TxOutput(amount=50 * len(owners), recipient=recipient),),
    )
    digest = bytes(unsigned.sighash())
    return Transaction(
        inputs=tuple(replace(i, signature=key.sign(digest))
                     for i, key in zip(unsigned.inputs, owners)),
        outputs=unsigned.outputs,
    )


def cold_check(tx):
    """(verdict, sigcache misses, sigcache hits) of one check on a cold
    cache (signing seeded it)."""
    clear_sigcache()
    ok = tx.verify_input_signatures()
    counters = sigcache_counters()
    return ok, counters["sigcache.misses"], counters["sigcache.hits"]


class TestEachDistinctInputSignatureCheckedOnce:
    """Every input signs the same sighash, so an input repeating the key
    and signature of the input checked just before it is not re-checked."""

    def test_single_owner_costs_one_check(self, keypairs):
        alice, bob = keypairs[:2]
        assert cold_check(spend_from([alice] * 3, bob.address)) == (True, 1, 0)

    def test_two_owners_cost_two_checks(self, keypairs):
        alice, bob, carol = keypairs[:3]
        assert cold_check(spend_from([alice, alice, carol], bob.address)) == (True, 2, 0)
        # Only a repeat of the input just before is skipped.
        assert cold_check(spend_from([alice, carol, alice], bob.address)) == (True, 2, 1)

    def test_tampered_later_input_still_fails(self, keypairs):
        alice, bob = keypairs[:2]
        tx = spend_from([alice] * 3, bob.address)
        last = tx.inputs[-1]
        forged = replace(last, signature=bytes([last.signature[0] ^ 1]) + last.signature[1:])
        tampered = Transaction(inputs=tx.inputs[:-1] + (forged,), outputs=tx.outputs)
        assert tampered.sighash() == tx.sighash()
        assert cold_check(tampered) == (False, 2, 0)


class TestAccountTransaction:
    def test_sign_and_verify(self, rng):
        alice, bob = alice_bob(rng)
        tx = sign_account_transaction(alice, nonce=0, recipient=bob.address, value=10)
        assert tx.verify_signature()
        assert tx.sender == alice.address

    def test_tampered_value_fails(self, rng):
        alice, bob = alice_bob(rng)
        tx = sign_account_transaction(alice, nonce=0, recipient=bob.address, value=10)
        forged = AccountTransaction(
            sender_public_key=tx.sender_public_key,
            nonce=tx.nonce,
            recipient=tx.recipient,
            value=9999,
            gas_limit=tx.gas_limit,
            gas_price=tx.gas_price,
            signature=tx.signature,
        )
        assert not forged.verify_signature()

    def test_field_validation(self, rng):
        alice, bob = alice_bob(rng)
        with pytest.raises(ValidationError):
            AccountTransaction(alice.public_key, 0, bob.address, -1, 21000, 1)
        with pytest.raises(ValidationError):
            AccountTransaction(alice.public_key, 0, bob.address, 1, 0, 1)
        with pytest.raises(ValidationError):
            AccountTransaction(alice.public_key, 0, bob.address, 1, 21000, -1)

    def test_size_accounts_for_data(self, rng):
        alice, bob = alice_bob(rng)
        small = sign_account_transaction(alice, 0, bob.address, 1)
        big = sign_account_transaction(alice, 0, bob.address, 1, data=b"\x01" * 100)
        assert big.size_bytes == small.size_bytes + 100
