"""Block-lattice blocks (Figure 2/3 of the paper).

Each block is one transaction on one account's chain and records the
account's *resulting balance* — the design that makes history prunable
(Section V-B: "accounts keep record of account balances instead of
unspent transaction inputs").  Four kinds exist:

* ``open``    — creates an account chain, receiving a pending send;
* ``send``    — deducts from the sender's balance toward a destination;
* ``receive`` — settles a pending send into the recipient's balance;
* ``change``  — rotates the account's representative (Section III-B).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from repro.common.memo import cached
from typing import Optional

from repro.common.encoding import Encoder
from repro.common.errors import ValidationError
from repro.common.types import Address, Hash
from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyPair, verify_signature
from repro.crypto.pow import check_antispam, solve_antispam


class BlockType(enum.Enum):
    OPEN = "open"
    SEND = "send"
    RECEIVE = "receive"
    CHANGE = "change"


@dataclass(frozen=True)
class NanoBlock:
    """One node of the DAG: a single transaction on one account chain.

    ``balance`` is the account balance *after* this block.  ``link``
    carries the cross-chain edge: for a send, the destination address
    (zero-padded to 32 bytes); for a receive/open, the hash of the source
    send block.
    """

    block_type: BlockType
    account: Address
    previous: Hash  # zero hash for open blocks
    representative: Address
    balance: int
    link: bytes  # 32 bytes: destination address (padded) or source hash
    public_key: bytes = b""
    signature: bytes = b""
    work: int = 0

    def __post_init__(self) -> None:
        if self.balance < 0:
            raise ValidationError("balance cannot be negative")
        if len(self.link) != 32:
            raise ValidationError("link must be 32 bytes")
        if self.block_type == BlockType.OPEN and not self.previous.is_zero():
            raise ValidationError("open blocks have no predecessor")
        if self.block_type != BlockType.OPEN and self.previous.is_zero():
            raise ValidationError(f"{self.block_type.value} block needs a predecessor")

    # ------------------------------------------------------------- identity
    #
    # Blocks are immutable: signed body, wire form, and digest are each
    # computed once and cached forever (``_finish`` builds new blocks via
    # ``replace``, so caches never need invalidation).

    @cached
    def _signed_body_bytes(self) -> bytes:
        return (
            Encoder.shared()
            .raw(self.block_type.value.encode("ascii").ljust(8, b"\x00"))
            .raw(bytes(self.account))
            .raw(bytes(self.previous))
            .raw(bytes(self.representative))
            .uint(self.balance, 16)
            .raw(self.link)
            .getvalue()
        )

    def _signed_body(self) -> bytes:
        return self._signed_body_bytes

    @cached
    def block_hash(self) -> Hash:
        return sha256(self._signed_body_bytes)

    #: Bytes of per-block authentication overhead: public key (32) +
    #: signature (64) + work nonce (8).  Used by Section V size reports.
    AUTH_OVERHEAD_BYTES = 32 + 64 + 8

    @cached
    def _serialized(self) -> bytes:
        return (
            Encoder.shared()
            .raw(self._signed_body_bytes)
            .raw(self.public_key.ljust(32, b"\x00"))
            .raw(self.signature.ljust(64, b"\x00"))
            .uint(self.work, 8)
            .getvalue()
        )

    def serialize(self) -> bytes:
        """Full wire/disk form: body + public key + signature + work."""
        return self._serialized

    @property
    def size_bytes(self) -> int:
        return len(self._serialized)

    # -------------------------------------------------------------- helpers

    @property
    def destination(self) -> Address:
        """For send blocks: the recipient encoded in ``link``."""
        if self.block_type != BlockType.SEND:
            raise ValidationError("only send blocks have a destination")
        return Address(self.link[:20])

    @property
    def source(self) -> Hash:
        """For open/receive blocks: the send block being settled."""
        if self.block_type not in (BlockType.OPEN, BlockType.RECEIVE):
            raise ValidationError("only open/receive blocks have a source")
        return Hash(self.link)

    def work_root(self) -> bytes:
        """Payload the anti-spam PoW commits to: the previous block hash,
        or the account for a chain's first block (as in Nano)."""
        return bytes(self.previous) if not self.previous.is_zero() else bytes(self.account)

    # ----------------------------------------------------------- validation

    def verify_signature(self) -> bool:
        return verify_signature(
            self.public_key, bytes(self.block_hash), self.signature
        )

    def verify_work(self, difficulty: float) -> bool:
        """Check the hashcash anti-spam stamp (Section III-B)."""
        return check_antispam(self.work_root(), self.work, difficulty)


def _finish(
    block: NanoBlock, keypair: KeyPair, work_difficulty: Optional[float]
) -> NanoBlock:
    """Sign the block and attach anti-spam work."""
    signature = keypair.sign(bytes(block.block_hash))
    work = (
        solve_antispam(block.work_root(), work_difficulty)
        if work_difficulty is not None
        else 0
    )
    return replace(block, public_key=keypair.public_key, signature=signature, work=work)


def _pad_address(address: Address) -> bytes:
    return bytes(address) + b"\x00" * 12


def make_open(
    keypair: KeyPair,
    source: Hash,
    amount: int,
    representative: Address,
    work_difficulty: Optional[float] = None,
) -> NanoBlock:
    """First block of an account chain, settling a pending send.

    A *genesis* open block passes ``source=Hash.zero()`` and mints the
    initial supply — "the genesis transaction defines the initial state".
    """
    block = NanoBlock(
        block_type=BlockType.OPEN,
        account=keypair.address,
        previous=Hash.zero(),
        representative=representative,
        balance=amount,
        link=bytes(source),
    )
    return _finish(block, keypair, work_difficulty)


def make_send(
    keypair: KeyPair,
    previous: NanoBlock,
    destination: Address,
    amount: int,
    work_difficulty: Optional[float] = None,
    representative: Optional[Address] = None,
) -> NanoBlock:
    """Deduct ``amount`` from the account: funds become *pending* for the
    destination until it issues a receive (Figure 3)."""
    if amount <= 0:
        raise ValidationError("send amount must be positive")
    if amount > previous.balance:
        raise ValidationError(
            f"send of {amount} exceeds balance {previous.balance}"
        )
    block = NanoBlock(
        block_type=BlockType.SEND,
        account=keypair.address,
        previous=previous.block_hash,
        representative=representative or previous.representative,
        balance=previous.balance - amount,
        link=_pad_address(destination),
    )
    return _finish(block, keypair, work_difficulty)


def make_receive(
    keypair: KeyPair,
    previous: NanoBlock,
    source: Hash,
    amount: int,
    work_difficulty: Optional[float] = None,
) -> NanoBlock:
    """Settle a pending send into the account balance (Figure 3)."""
    if amount <= 0:
        raise ValidationError("receive amount must be positive")
    block = NanoBlock(
        block_type=BlockType.RECEIVE,
        account=keypair.address,
        previous=previous.block_hash,
        representative=previous.representative,
        balance=previous.balance + amount,
        link=bytes(source),
    )
    return _finish(block, keypair, work_difficulty)


def make_change(
    keypair: KeyPair,
    previous: NanoBlock,
    representative: Address,
    work_difficulty: Optional[float] = None,
) -> NanoBlock:
    """Rotate the account's representative — "when an account is created,
    it must choose a representative that can be changed over time"."""
    block = NanoBlock(
        block_type=BlockType.CHANGE,
        account=keypair.address,
        previous=previous.block_hash,
        representative=representative,
        balance=previous.balance,
        link=b"\x00" * 32,
    )
    return _finish(block, keypair, work_difficulty)
