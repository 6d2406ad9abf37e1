"""Wallets: key management plus spendable-output tracking.

A wallet answers "what can this key spend right now?" — which, on a UTXO
chain, requires tracking in-flight (submitted but unmined) transactions,
or the second payment would double-spend the first's inputs inside the
mempool.  :class:`UtxoWallet` keeps an *optimistic* view: spent outputs
leave immediately, change and incoming outputs arrive immediately.  The
view matches the eventual chain state for any set of valid,
non-conflicting payments, because orphaned transactions are re-mined
(Section IV-A) rather than dropped — provided every payment reached a
node: one the node refuses (full mempool, fee floor) must be rolled back
with :meth:`UtxoWallet.snapshot` / :meth:`UtxoWallet.restore`.

:class:`AccountWallet` is the account-model analogue: the only local
state is the next nonce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.common.errors import ValidationError
from repro.common.types import Address, TxId
from repro.crypto.keys import KeyPair
from repro.blockchain.transaction import (
    AccountTransaction,
    Transaction,
    build_transaction,
    sign_account_transaction,
)

Outpoint = Tuple[TxId, int]


@dataclass
class UtxoWallet:
    """One keypair's optimistic spendable-output set."""

    keypair: KeyPair
    _outputs: Dict[Outpoint, int] = field(default_factory=dict)

    @property
    def address(self) -> Address:
        return self.keypair.address

    @property
    def balance(self) -> int:
        """Spendable value under the optimistic view."""
        return sum(self._outputs.values())

    def track(self, txid: TxId, index: int, amount: int) -> None:
        """Register an output this wallet controls (funding, change,
        incoming payment)."""
        if amount < 0:
            raise ValidationError("tracked amount must be non-negative")
        self._outputs[(txid, index)] = amount

    def track_funding(self, tx: Transaction) -> int:
        """Scan a transaction for outputs payable to this wallet."""
        found = 0
        for index, output in enumerate(tx.outputs):
            if output.recipient == self.address:
                self.track(tx.txid, index, output.amount)
                found += 1
        return found

    def spendable(self) -> List[Tuple[TxId, int, int]]:
        return [
            (txid, index, amount)
            for (txid, index), amount in sorted(self._outputs.items())
        ]

    def snapshot(self) -> Dict[Outpoint, int]:
        """The optimistic view right now, for :meth:`restore`."""
        return dict(self._outputs)

    def restore(self, snapshot: Dict[Outpoint, int]) -> None:
        """Roll the view back to ``snapshot`` — the payment built since
        was refused by the node, so neither its spent inputs nor its
        change exist anywhere."""
        self._outputs = dict(snapshot)

    def pay(self, recipient: Address, amount: int, fee: int = 0) -> Transaction:
        """Build a signed payment and update the optimistic view."""
        tx = build_transaction(self.keypair, self.spendable(), recipient, amount, fee)
        for tx_input in tx.inputs:
            self._outputs.pop(tx_input.outpoint, None)
        for index, output in enumerate(tx.outputs):
            if output.recipient == self.address:
                self.track(tx.txid, index, output.amount)
        return tx

    def receive_from(self, tx: Transaction) -> int:
        """Credit outputs of a counterparty's payment to this wallet."""
        return self.track_funding(tx)


@dataclass
class AccountWallet:
    """Account-model wallet: the key plus the next nonce."""

    keypair: KeyPair
    next_nonce: int = 0

    @property
    def address(self) -> Address:
        return self.keypair.address

    def pay(
        self,
        recipient: Address,
        value: int,
        gas_limit: int = 21_000,
        gas_price: int = 1,
        data: bytes = b"",
    ) -> AccountTransaction:
        """Build a signed transaction and advance the local nonce."""
        tx = sign_account_transaction(
            self.keypair,
            nonce=self.next_nonce,
            recipient=recipient,
            value=value,
            gas_limit=gas_limit,
            gas_price=gas_price,
            data=data,
        )
        self.next_nonce += 1
        return tx

    def resync(self, chain_nonce: int) -> None:
        """Adopt the chain's view after a restart or dropped txs."""
        if chain_nonce < 0:
            raise ValidationError("nonce cannot be negative")
        self.next_nonce = chain_nonce
