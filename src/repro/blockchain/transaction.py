"""Transactions for both blockchain reference implementations.

Bitcoin models value as *unspent transaction outputs* (UTXOs): a
transaction consumes previous outputs via signed inputs and creates new
outputs.  Ethereum models value as *account balances*: a transaction is a
signed (sender, nonce, recipient, value, gas) tuple.  The distinction
matters for Section V — Nano's argument that balances (not UTXOs) make
history discardable applies to account models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.common.encoding import Encoder, encode_uint
from repro.common.memo import cached
from repro.common.errors import ValidationError
from repro.common.types import Address, Hash, TxId
from repro.crypto.hashing import sha256d
from repro.crypto.keys import KeyPair, address_of, verify_signature

#: Output index marking a coinbase input (no previous output is spent).
COINBASE_INDEX = 0xFFFFFFFF


@dataclass(frozen=True)
class TxOutput:
    """A spendable value assigned to an address."""

    amount: int
    recipient: Address

    def __post_init__(self) -> None:
        if self.amount < 0:
            raise ValidationError(f"negative output amount {self.amount}")

    @cached
    def _serialized(self) -> bytes:
        return Encoder.shared().uint(self.amount, 8).raw(bytes(self.recipient)).getvalue()

    def serialize(self) -> bytes:
        return self._serialized


@dataclass(frozen=True)
class TxInput:
    """A reference to a previous output plus spending authorization."""

    prev_txid: TxId
    prev_index: int
    public_key: bytes = b""
    signature: bytes = b""

    @cached
    def outpoint(self) -> Tuple[TxId, int]:
        return (self.prev_txid, self.prev_index)

    @cached
    def is_coinbase(self) -> bool:
        return self.prev_txid.is_zero() and self.prev_index == COINBASE_INDEX

    @cached
    def _serialized(self) -> bytes:
        return (
            Encoder.shared()
            .raw(bytes(self.prev_txid))
            .uint(self.prev_index, 4)
            .bytes(self.public_key)
            .bytes(self.signature)
            .getvalue()
        )

    def serialize(self) -> bytes:
        return self._serialized


@dataclass(frozen=True)
class Transaction:
    """A UTXO transaction (Bitcoin model)."""

    inputs: Tuple[TxInput, ...]
    outputs: Tuple[TxOutput, ...]
    #: Differentiates coinbases of different blocks/miners so their ids differ.
    nonce: int = 0

    def __post_init__(self) -> None:
        if not self.outputs:
            raise ValidationError("transaction must have at least one output")
        if not self.inputs:
            raise ValidationError("transaction must have at least one input")

    # ------------------------------------------------------------- identity
    #
    # Transactions are immutable, so canonical bytes and digest are
    # computed once and cached forever (never invalidated).

    @cached
    def _serialized(self) -> bytes:
        return (
            Encoder.shared()
            .uint(self.nonce, 8)
            .list([i.serialize() for i in self.inputs])
            .list([o.serialize() for o in self.outputs])
            .getvalue()
        )

    def serialize(self) -> bytes:
        return self._serialized

    @cached
    def txid(self) -> TxId:
        return sha256d(self._serialized)

    @property
    def size_bytes(self) -> int:
        return len(self._serialized)

    # ------------------------------------------------------------- semantics

    @cached
    def is_coinbase(self) -> bool:
        return len(self.inputs) == 1 and self.inputs[0].is_coinbase

    @cached
    def _total_output(self) -> int:
        return sum(o.amount for o in self.outputs)

    def total_output(self) -> int:
        return self._total_output

    @cached
    def _sighash(self) -> Hash:
        body = (
            Encoder.shared()
            .list([bytes(i.prev_txid) + encode_uint(i.prev_index, 4)
                   for i in self.inputs])
            .list([o.serialize() for o in self.outputs])
            .getvalue()
        )
        return sha256d(body)

    def sighash(self) -> Hash:
        """Digest each input signs: outpoints + outputs (not signatures).

        Cached: every node revalidates the same immutable transaction, so
        the digest is computed once per object, not once per check."""
        return self._sighash

    def verify_input_signatures(self) -> bool:
        """Check every non-coinbase input's signature over the sighash."""
        digest = bytes(self._sighash)
        for tx_input in self.inputs:
            if tx_input.is_coinbase:
                continue
            if not verify_signature(tx_input.public_key, digest, tx_input.signature):
                return False
        return True


def make_coinbase(recipient: Address, amount: int, nonce: int = 0) -> Transaction:
    """The block-subsidy transaction that pays the miner (Section III-A1:
    "miners are granted tokens ... as an economic incentive")."""
    coinbase_input = TxInput(prev_txid=Hash.zero(), prev_index=COINBASE_INDEX)
    return Transaction(
        inputs=(coinbase_input,),
        outputs=(TxOutput(amount=amount, recipient=recipient),),
        nonce=nonce,
    )


def build_transaction(
    keypair: KeyPair,
    spendable: List[Tuple[TxId, int, int]],
    recipient: Address,
    amount: int,
    fee: int = 0,
) -> Transaction:
    """Assemble and sign a payment.

    ``spendable`` lists (txid, index, value) outputs owned by ``keypair``.
    Inputs are selected greedily; change (if any) returns to the sender.
    """
    if amount <= 0:
        raise ValidationError("payment amount must be positive")
    if fee < 0:
        raise ValidationError("fee must be non-negative")

    selected: List[Tuple[TxId, int, int]] = []
    gathered = 0
    for txid, index, value in spendable:
        selected.append((txid, index, value))
        gathered += value
        if gathered >= amount + fee:
            break
    if gathered < amount + fee:
        raise ValidationError(
            f"insufficient funds: have {gathered}, need {amount + fee}"
        )

    outputs: List[TxOutput] = [TxOutput(amount=amount, recipient=recipient)]
    change = gathered - amount - fee
    if change > 0:
        outputs.append(TxOutput(amount=change, recipient=keypair.address))

    unsigned_inputs = tuple(
        TxInput(prev_txid=txid, prev_index=index, public_key=keypair.public_key)
        for txid, index, _value in selected
    )
    unsigned = Transaction(inputs=unsigned_inputs, outputs=tuple(outputs))
    signature = keypair.sign(bytes(unsigned.sighash()))
    signed_inputs = tuple(
        TxInput(
            prev_txid=i.prev_txid,
            prev_index=i.prev_index,
            public_key=keypair.public_key,
            signature=signature,
        )
        for i in unsigned_inputs
    )
    signed = Transaction(inputs=signed_inputs, outputs=tuple(outputs))
    # The sighash covers outpoints + outputs only (never signatures), so
    # the unsigned sibling already computed the signed tx's digest.
    signed.__dict__["_sighash"] = unsigned._sighash
    return signed


# --------------------------------------------------------------------------
# Account model (Ethereum)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AccountTransaction:
    """An Ethereum-style account transaction.

    ``gas_limit``/``gas_price`` make block capacity a *computation* budget
    rather than a byte budget — the Section VI-A point that Ethereum block
    size "is not measured in bytes but rather in gas".
    """

    sender_public_key: bytes
    nonce: int
    recipient: Address
    value: int
    gas_limit: int
    gas_price: int
    data: bytes = b""
    signature: bytes = b""

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValidationError("value must be non-negative")
        if self.gas_limit <= 0:
            raise ValidationError("gas limit must be positive")
        if self.gas_price < 0:
            raise ValidationError("gas price must be non-negative")

    @property
    def sender(self) -> Address:
        return address_of(self.sender_public_key)

    @cached
    def _body_bytes(self) -> bytes:
        return (
            Encoder.shared()
            .bytes(self.sender_public_key)
            .uint(self.nonce, 8)
            .raw(bytes(self.recipient))
            .uint(self.value, 16)
            .uint(self.gas_limit, 8)
            .uint(self.gas_price, 8)
            .bytes(self.data)
            .getvalue()
        )

    @cached
    def _serialized(self) -> bytes:
        return Encoder.shared().raw(self._body_bytes).bytes(self.signature).getvalue()

    def serialize(self) -> bytes:
        return self._serialized

    @cached
    def txid(self) -> TxId:
        return sha256d(self._serialized)

    @property
    def size_bytes(self) -> int:
        return len(self._serialized)

    @cached
    def _sighash(self) -> Hash:
        return sha256d(self._body_bytes)

    def sighash(self) -> Hash:
        return self._sighash

    def verify_signature(self) -> bool:
        return verify_signature(
            self.sender_public_key, bytes(self.sighash()), self.signature
        )


def sign_account_transaction(
    keypair: KeyPair,
    nonce: int,
    recipient: Address,
    value: int,
    gas_limit: int = 21_000,
    gas_price: int = 1,
    data: bytes = b"",
) -> AccountTransaction:
    """Build a signed account transaction from ``keypair``."""
    unsigned = AccountTransaction(
        sender_public_key=keypair.public_key,
        nonce=nonce,
        recipient=recipient,
        value=value,
        gas_limit=gas_limit,
        gas_price=gas_price,
        data=data,
    )
    signature = keypair.sign(bytes(unsigned.sighash()))
    signed = AccountTransaction(
        sender_public_key=keypair.public_key,
        nonce=nonce,
        recipient=recipient,
        value=value,
        gas_limit=gas_limit,
        gas_price=gas_price,
        data=data,
        signature=signature,
    )
    # Body bytes and sighash exclude the signature, so the unsigned
    # sibling already computed both for the signed object.
    signed.__dict__["_body_bytes"] = unsigned._body_bytes
    signed.__dict__["_sighash"] = unsigned._sighash
    return signed
