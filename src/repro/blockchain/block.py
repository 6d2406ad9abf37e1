"""Blocks and headers (Figure 1 of the paper).

A header carries the parent hash (the chain link), the Merkle root of its
transactions, and the PoW fields; Ethereum-style chains additionally
commit to a state root and a receipts root (Section II-A: "Ethereum uses
three different structures to store transactions, receipts and state").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from repro.common.memo import cached
from typing import Optional, Sequence, Tuple, Union

from repro.common.encoding import Encoder
from repro.common.types import Address, Hash
from repro.crypto.hashing import sha256d
from repro.crypto.merkle import merkle_root
from repro.crypto.pow import MAX_TARGET, check_pow
from repro.blockchain.transaction import AccountTransaction, Transaction, make_coinbase

AnyTransaction = Union[Transaction, AccountTransaction]

#: Serialized header size is constant; handy for pruning math (Section V-A:
#: pruned nodes keep headers, discard bodies).
HEADER_SIZE_BYTES = 32 * 4 + 8 * 4 + 32  # four hashes + four u64 + target


@dataclass(frozen=True)
class BlockHeader:
    """Block metadata; its double-SHA256 is the block id."""

    parent_id: Hash
    merkle_root: Hash
    timestamp: float
    height: int
    target: int
    nonce: int = 0
    state_root: Hash = Hash.zero()
    receipts_root: Hash = Hash.zero()
    proposer: Optional[Address] = None  # PoS chains record the block proposer

    # Headers are immutable: the PoW payload, wire form, and digest are
    # each computed once and cached forever (``with_nonce`` builds a new
    # header, so caches never need invalidation).

    @cached
    def _pow_payload(self) -> bytes:
        return (
            Encoder.shared()
            .raw(bytes(self.parent_id))
            .raw(bytes(self.merkle_root))
            .raw(bytes(self.state_root))
            .raw(bytes(self.receipts_root))
            .uint(int(self.timestamp * 1000), 8)
            .uint(self.height, 8)
            .uint(self.target, 32)
            .raw(bytes(self.proposer) if self.proposer else b"\x00" * 20)
            .getvalue()
        )

    def pow_payload(self) -> bytes:
        """Everything the PoW nonce commits to (all fields except nonce)."""
        return self._pow_payload

    @cached
    def _serialized(self) -> bytes:
        return self._pow_payload + self.nonce.to_bytes(8, "big")

    def serialize(self) -> bytes:
        return self._serialized

    @cached
    def block_id(self) -> Hash:
        return sha256d(self._serialized)

    @property
    def size_bytes(self) -> int:
        return len(self._serialized)

    @property
    def work(self) -> float:
        """Expected hashes to find this block — fork-choice weight."""
        return MAX_TARGET / self.target

    def check_proof_of_work(self) -> bool:
        return check_pow(self.pow_payload(), self.nonce, self.target)

    def with_nonce(self, nonce: int) -> "BlockHeader":
        return replace(self, nonce=nonce)


@dataclass(frozen=True)
class Block:
    """Header plus transaction list."""

    header: BlockHeader
    transactions: Tuple[AnyTransaction, ...]

    @property
    def block_id(self) -> Hash:
        return self.header.block_id

    @property
    def height(self) -> int:
        return self.header.height

    @property
    def parent_id(self) -> Hash:
        return self.header.parent_id

    @cached
    def size_bytes(self) -> int:
        """Serialized size: header plus all transaction bodies."""
        return self.header.size_bytes + self.body_size_bytes

    @cached
    def body_size_bytes(self) -> int:
        """Transaction bytes only — what pruning discards (Section V-A)."""
        return sum(tx.size_bytes for tx in self.transactions)

    @cached
    def _computed_merkle_root(self) -> Hash:
        if not self.transactions:
            return Hash.zero()
        return merkle_root([tx.txid for tx in self.transactions])

    def merkle_root_matches(self) -> bool:
        return self._computed_merkle_root == self.header.merkle_root

    def is_genesis(self) -> bool:
        return self.header.parent_id.is_zero() and self.header.height == 0


def assemble_block(
    parent: Optional[BlockHeader],
    transactions: Sequence[AnyTransaction],
    timestamp: float,
    target: int,
    state_root: Hash = Hash.zero(),
    receipts_root: Hash = Hash.zero(),
    proposer: Optional[Address] = None,
    nonce: int = 0,
) -> Block:
    """Build a block whose header commits to the given transactions."""
    txs = tuple(transactions)
    root = merkle_root([tx.txid for tx in txs]) if txs else Hash.zero()
    header = BlockHeader(
        parent_id=parent.block_id if parent else Hash.zero(),
        merkle_root=root,
        timestamp=timestamp,
        height=(parent.height + 1) if parent else 0,
        target=target,
        nonce=nonce,
        state_root=state_root,
        receipts_root=receipts_root,
        proposer=proposer,
    )
    return Block(header=header, transactions=txs)


def build_genesis_block(
    initial_recipient: Address,
    initial_supply: int,
    target: int = MAX_TARGET,
    timestamp: float = 0.0,
) -> Block:
    """The hard-coded first block: "the genesis block has no predecessor"
    (Section II-A).  Its coinbase mints the initial supply."""
    coinbase = make_coinbase(initial_recipient, initial_supply, nonce=0)
    return assemble_block(
        parent=None,
        transactions=[coinbase],
        timestamp=timestamp,
        target=target,
    )


def build_genesis_with_allocations(
    allocations: "dict[Address, int]",
    target: int = MAX_TARGET,
    timestamp: float = 0.0,
) -> Block:
    """Genesis whose coinbase pays out an initial allocation table —
    "the initial state is hard-coded in the first block"."""
    from repro.blockchain.transaction import COINBASE_INDEX, Transaction, TxInput, TxOutput

    if not allocations:
        raise ValueError("genesis needs at least one allocation")
    coinbase = Transaction(
        inputs=(TxInput(prev_txid=Hash.zero(), prev_index=COINBASE_INDEX),),
        outputs=tuple(
            TxOutput(amount=amount, recipient=address)
            for address, amount in allocations.items()
        ),
        nonce=0,
    )
    return assemble_block(
        parent=None, transactions=[coinbase], timestamp=timestamp, target=target
    )
