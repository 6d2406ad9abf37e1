"""Tests for repro.blockchain.wallet."""

import pytest

from repro.common.errors import ValidationError
from repro.crypto.keys import KeyPair
from repro.blockchain.transaction import make_coinbase
from repro.blockchain.utxo import UTXOSet
from repro.blockchain.wallet import AccountWallet, UtxoWallet


@pytest.fixture
def funded_wallet(rng):
    kp = KeyPair.generate(rng)
    wallet = UtxoWallet(kp)
    funding = make_coinbase(kp.address, 1_000)
    wallet.track_funding(funding)
    return wallet, funding


class TestUtxoWallet:
    def test_tracks_funding_outputs(self, funded_wallet):
        wallet, _ = funded_wallet
        assert wallet.balance == 1_000
        assert len(wallet.spendable()) == 1

    def test_pay_updates_optimistic_view(self, funded_wallet, rng):
        wallet, _ = funded_wallet
        bob = KeyPair.generate(rng)
        tx = wallet.pay(bob.address, 300, fee=10)
        assert wallet.balance == 690  # change tracked immediately

    def test_restore_undoes_a_refused_payment(self, funded_wallet, rng):
        wallet, _ = funded_wallet
        bob = KeyPair.generate(rng)
        before, spendable = wallet.snapshot(), wallet.spendable()
        refused = wallet.pay(bob.address, 300, fee=10)
        assert wallet.spendable() != spendable
        wallet.restore(before)
        assert wallet.spendable() == spendable and wallet.balance == 1_000
        # The retry spends the original inputs, not the refused change;
        # the snapshot itself is not aliased by the live view.
        retry = wallet.pay(bob.address, 300, fee=10)
        assert [i.outpoint for i in retry.inputs] == [i.outpoint for i in refused.inputs]
        wallet.restore(before)
        assert wallet.balance == 1_000

    def test_chained_unconfirmed_payments(self, funded_wallet, rng):
        """The reason wallets exist: spending twice before anything is
        mined must not reuse the first payment's inputs."""
        wallet, _ = funded_wallet
        bob = KeyPair.generate(rng)
        tx1 = wallet.pay(bob.address, 300)
        tx2 = wallet.pay(bob.address, 200)
        in1 = {i.outpoint for i in tx1.inputs}
        in2 = {i.outpoint for i in tx2.inputs}
        assert in1.isdisjoint(in2)
        # Both apply cleanly to a fresh UTXO set in order.
        utxo = UTXOSet()
        utxo.apply_transaction(make_coinbase(wallet.address, 1_000))
        utxo.apply_transaction(tx1)
        utxo.apply_transaction(tx2)
        assert utxo.balance(bob.address) == 500

    def test_overspend_rejected(self, funded_wallet, rng):
        wallet, _ = funded_wallet
        bob = KeyPair.generate(rng)
        with pytest.raises(ValidationError):
            wallet.pay(bob.address, 2_000)

    def test_receive_from_counterparty(self, funded_wallet, rng):
        wallet, _ = funded_wallet
        other = UtxoWallet(KeyPair.generate(rng))
        other.track_funding(make_coinbase(other.address, 500, nonce=2))
        payment = other.pay(wallet.address, 120)
        credited = wallet.receive_from(payment)
        assert credited == 1
        assert wallet.balance == 1_120

    def test_track_validates_amount(self, funded_wallet):
        wallet, funding = funded_wallet
        with pytest.raises(ValidationError):
            wallet.track(funding.txid, 5, -1)

    def test_funding_for_stranger_ignored(self, rng):
        wallet = UtxoWallet(KeyPair.generate(rng))
        stranger_cb = make_coinbase(KeyPair.generate(rng).address, 100)
        assert wallet.track_funding(stranger_cb) == 0
        assert wallet.balance == 0


class TestAccountWallet:
    def test_nonces_increment(self, rng):
        wallet = AccountWallet(KeyPair.generate(rng))
        bob = KeyPair.generate(rng)
        tx0 = wallet.pay(bob.address, 10)
        tx1 = wallet.pay(bob.address, 10)
        assert (tx0.nonce, tx1.nonce) == (0, 1)
        assert wallet.next_nonce == 2

    def test_transactions_signed(self, rng):
        wallet = AccountWallet(KeyPair.generate(rng))
        tx = wallet.pay(KeyPair.generate(rng).address, 5)
        assert tx.verify_signature()

    def test_resync(self, rng):
        wallet = AccountWallet(KeyPair.generate(rng), next_nonce=7)
        wallet.resync(3)
        assert wallet.next_nonce == 3
        with pytest.raises(ValidationError):
            wallet.resync(-1)
