"""Ethereum-style account state backed by a Merkle-Patricia trie.

The trie's root hash is the header's ``state_root``.  Account records
are read through and written back by a decoded per-version cache: a
block's transactions touch the trie once per account (one ``get`` on the
first read, one ``put`` when the root is read), however often they read
or rewrite it.  A root — and with it a stored, durably addressable
version — exists only where one is read, which a node does once per
block.  Those per-block versions are the "deltas in the global state"
that Section V-A says can be rolled back on a soft fork or discarded by
fast sync.

Contract accounts (Section VI-A: smart contracts make Ethereum "a
platform rather than only a cryptocurrency") carry code executed by
:mod:`repro.blockchain.vm` with upfront gas debiting and refund-on-halt,
and keep their persistent storage in the same authenticated trie, so the
state root commits to code, balances and storage alike.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.common.encoding import encode_bytes, encode_uint
from repro.common.errors import InsufficientFundsError, ValidationError
from repro.common.types import ADDRESS_SIZE, Address, Hash
from repro.crypto.trie import MerklePatriciaTrie
from repro.blockchain.gas import intrinsic_gas
from repro.blockchain.receipts import Receipt
from repro.blockchain.transaction import AccountTransaction
from repro.blockchain import vm

# Trie key namespaces: one authenticated structure commits to everything.
_ACCOUNT_PREFIX = b"\x00"
_STORAGE_PREFIX = b"\x01"

#: Gas surcharge for deploying a contract, plus per-byte code cost.
CREATE_GAS = 32_000
CODE_DEPOSIT_GAS_PER_BYTE = 200

# A record's fixed head: 16-byte balance, 8-byte nonce, 4-byte code length.
_RECORD_HEAD = 28


@dataclass(frozen=True)
class AccountRecord:
    """One account's ledger entry: balance, nonce, and contract code."""

    balance: int
    nonce: int
    code: bytes = b""

    @property
    def is_contract(self) -> bool:
        return bool(self.code)

    def serialize(self) -> bytes:
        return (
            encode_uint(self.balance, 16)
            + encode_uint(self.nonce, 8)
            + encode_bytes(self.code)
        )

    @classmethod
    def deserialize(cls, data: bytes) -> "AccountRecord":
        """Inverse of :meth:`serialize`; a short record, or bytes past the
        code its length field announces, raise :class:`ValidationError`."""
        if (len(data) < _RECORD_HEAD
                or int.from_bytes(data[24:_RECORD_HEAD], "big") != len(data) - _RECORD_HEAD):
            raise ValidationError(f"malformed {len(data)}-byte account record")
        return cls(int.from_bytes(data[:16], "big"), int.from_bytes(data[16:24], "big"),
                   data[_RECORD_HEAD:])


EMPTY_ACCOUNT = AccountRecord(balance=0, nonce=0)


def contract_address(creator: Address, nonce: int) -> Address:
    """Deterministic address of a contract deployed by (creator, nonce)."""
    digest = hashlib.sha256(
        b"repro-contract" + bytes(creator) + nonce.to_bytes(8, "big")
    ).digest()
    return Address(digest[:ADDRESS_SIZE])


class AccountState:
    """Mutable world state with checkpointable roots.

    Account records are read through and written back by a decoded cache
    of the current version: ``_records`` holds each record read or
    written since the last version switch, ``_dirty`` those written since
    the last root read.  Every read of the whole version (``root_hash``,
    :meth:`accounts`, the sizes) first writes each dirty record back with
    one ``put``, so ``root_hash`` always commits to the full state;
    contract storage slots go straight to the trie.  :meth:`rollback_to`
    restores any root that was read before in O(1) and drops the cache
    with the writes made since (persistent trie hashed at commit time,
    see :mod:`repro.crypto.trie`).
    """

    def __init__(self) -> None:
        self._trie = MerklePatriciaTrie()
        self._records: Dict[Address, AccountRecord] = {}
        self._dirty: Set[Address] = set()

    # ---------------------------------------------------------------- access

    @property
    def root_hash(self) -> Hash:
        self._flush()
        return self._trie.root_hash

    def account(self, address: Address) -> AccountRecord:
        record = self._records.get(address)
        if record is None:
            raw = self._trie.get(_ACCOUNT_PREFIX + bytes(address))
            record = AccountRecord.deserialize(raw) if raw is not None else EMPTY_ACCOUNT
            self._records[address] = record
        return record

    def balance(self, address: Address) -> int:
        return self.account(address).balance

    def nonce(self, address: Address) -> int:
        return self.account(address).nonce

    def code(self, address: Address) -> bytes:
        return self.account(address).code

    def storage(self, address: Address, slot: int) -> int:
        raw = self._trie.get(self._storage_key(address, slot))
        return int.from_bytes(raw, "big") if raw is not None else 0

    def accounts(self) -> Iterator[Tuple[Address, AccountRecord]]:
        self._flush()
        for key, value in self._trie.items():
            if key[:1] == _ACCOUNT_PREFIX:
                yield Address(key[1:]), AccountRecord.deserialize(value)

    def total_supply(self) -> int:
        return sum(record.balance for _, record in self.accounts())

    # -------------------------------------------------------------- mutation

    def _write(self, address: Address, record: AccountRecord) -> None:
        self._records[address] = record
        self._dirty.add(address)

    def _flush(self) -> None:
        """Write each dirty record back to the trie (in any order: the
        trie's shape, and so its root, depends only on its contents)."""
        if self._dirty:
            records, put = self._records, self._trie.put
            for address in self._dirty:
                put(_ACCOUNT_PREFIX + bytes(address), records[address].serialize())
            self._dirty.clear()

    def _drop_cache(self) -> None:
        self._records.clear()
        self._dirty.clear()

    @staticmethod
    def _storage_key(address: Address, slot: int) -> bytes:
        return _STORAGE_PREFIX + bytes(address) + slot.to_bytes(32, "big")

    def _write_storage(self, address: Address, slot: int, value: int) -> None:
        key = self._storage_key(address, slot)
        if value == 0:
            self._trie.delete(key)
        else:
            self._trie.put(key, value.to_bytes(32, "big"))

    def credit(self, address: Address, amount: int) -> None:
        """Mint/transfer-in value (genesis allocation, block rewards)."""
        if amount < 0:
            raise ValidationError("credit amount must be non-negative")
        record = self.account(address)
        self._write(
            address, AccountRecord(record.balance + amount, record.nonce, record.code)
        )

    # ------------------------------------------------------------- execution

    def apply_transaction(self, tx: AccountTransaction, miner: Address) -> Receipt:
        """Execute a transaction with Ethereum-style gas accounting.

        Upfront the sender is debited ``value + gas_limit * gas_price``;
        unused gas is refunded on completion.  Plain transfers consume
        the intrinsic gas; transactions to ``Address.zero()`` with data
        deploy a contract; transactions to a contract account run its
        code.  A failed execution (revert / out of gas) produces a
        ``success=False`` receipt: the value transfer and storage writes
        are undone, the nonce still advances, and the miner keeps the
        fee for the gas actually burned.

        Raises on structurally invalid transactions (bad signature,
        wrong nonce, underfunded, gas limit below intrinsic) — those
        make the *block* invalid rather than producing a receipt.
        """
        if not tx.verify_signature():
            raise ValidationError(f"tx {tx.txid.short()} has an invalid signature")
        sender = tx.sender
        record = self.account(sender)
        if tx.nonce != record.nonce:
            raise ValidationError(
                f"tx {tx.txid.short()} nonce {tx.nonce} != account nonce {record.nonce}"
            )
        base_gas = intrinsic_gas(tx)
        if tx.gas_limit < base_gas:
            raise ValidationError(
                f"tx {tx.txid.short()} gas limit {tx.gas_limit} below intrinsic {base_gas}"
            )
        max_cost = tx.value + tx.gas_limit * tx.gas_price
        if record.balance < max_cost:
            raise InsufficientFundsError(
                f"{sender.short()} has {record.balance}, tx may cost {max_cost}"
            )

        # Upfront debit: value + full gas allowance; nonce advances now.
        self._write(
            sender,
            AccountRecord(record.balance - max_cost, record.nonce + 1, record.code),
        )

        is_create = tx.recipient == Address.zero() and bool(tx.data)
        recipient_record = self.account(tx.recipient)
        if is_create:
            gas_used, success = self._execute_create(tx, base_gas)
        elif recipient_record.is_contract:
            gas_used, success = self._execute_call(tx, recipient_record, base_gas)
        else:
            self.credit(tx.recipient, tx.value)
            gas_used, success = base_gas, True

        # Refund unused gas; pay the miner for gas burned.
        refund = (tx.gas_limit - gas_used) * tx.gas_price
        if not success:
            refund += tx.value  # failed executions do not move value
        if refund:
            self.credit(sender, refund)
        fee = gas_used * tx.gas_price
        if fee:
            self.credit(miner, fee)
        return Receipt(txid=tx.txid, success=success, gas_used=gas_used, cumulative_gas=0)

    def _execute_create(self, tx: AccountTransaction, base_gas: int) -> Tuple[int, bool]:
        """Deploy ``tx.data`` as contract code."""
        deploy_gas = CREATE_GAS + len(tx.data) * CODE_DEPOSIT_GAS_PER_BYTE
        gas_used = base_gas + deploy_gas
        if gas_used > tx.gas_limit:
            return tx.gas_limit, False  # out of gas: all gas burned
        new_address = contract_address(tx.sender, tx.nonce)
        existing = self.account(new_address)
        if existing.is_contract:
            return gas_used, False  # address collision (same creator+nonce)
        self._write(
            new_address,
            AccountRecord(existing.balance + tx.value, 0, tx.data),
        )
        return gas_used, True

    def _execute_call(
        self, tx: AccountTransaction, contract: AccountRecord, base_gas: int
    ) -> Tuple[int, bool]:
        """Run a contract account's code."""
        target = tx.recipient
        context = vm.ExecutionContext(
            caller=int.from_bytes(bytes(tx.sender), "big"),
            call_value=tx.value,
            call_args=_decode_call_args(tx.data),
            storage_read=lambda slot: self.storage(target, slot),
            balance_read=lambda addr_word: self.balance(
                Address(addr_word.to_bytes(32, "big")[-ADDRESS_SIZE:])
            ),
        )
        result = vm.execute(contract.code, tx.gas_limit - base_gas, context)
        gas_used = base_gas + result.gas_used
        if not result.success:
            return min(gas_used, tx.gas_limit), False
        # Value transfer and storage writes land only on success.
        self.credit(target, tx.value)
        for slot, value in result.storage_writes.items():
            self._write_storage(target, slot, value)
        return gas_used, True

    def apply_block_transactions(
        self, txs: List[AccountTransaction], miner: Address, block_reward: int
    ) -> Tuple[List[Receipt], int]:
        """Execute a block body; returns (receipts, total gas used).

        The miner's reward is credited after all transactions, matching
        the coinbase-last convention.
        """
        receipts: List[Receipt] = []
        cumulative = 0
        for tx in txs:
            receipt = self.apply_transaction(tx, miner)
            cumulative += receipt.gas_used
            receipts.append(
                Receipt(
                    txid=receipt.txid,
                    success=receipt.success,
                    gas_used=receipt.gas_used,
                    cumulative_gas=cumulative,
                )
            )
        if block_reward:
            self.credit(miner, block_reward)
        return receipts, cumulative

    # --------------------------------------------------------------- history

    def rollback_to(self, root: Hash) -> None:
        """Restore the state committed by ``root``, a root read earlier
        (reorg path, discarding a block template or a rejected block, and
        adopting a block this node's template already executed)."""
        self._trie.set_root(root)
        self._drop_cache()

    def checkpoint(self) -> Hash:
        """Alias of ``root_hash`` that reads as intent at call sites."""
        return self.root_hash

    def export_snapshot(self, root: Hash) -> Dict[Hash, bytes]:
        """The state a fast-syncing peer downloads at a pivot ``root``."""
        return self._trie.export_snapshot(root)

    def adopt_snapshot(self, root: Hash, nodes: Mapping[Hash, bytes]) -> None:
        """Verify a downloaded snapshot against ``root`` and make it the
        current state (see :meth:`MerklePatriciaTrie.adopt_snapshot`)."""
        self._trie.adopt_snapshot(root, nodes)
        self._drop_cache()

    # ------------------------------------------------------------ accounting

    def store_size_bytes(self) -> int:
        """Bytes of *all* stored state versions (one per root read, i.e.
        per block) — what fast sync prunes."""
        self._flush()
        return self._trie.store_size_bytes()

    def live_size_bytes(self) -> int:
        """Bytes reachable from the current root only."""
        return self._trie.version_size_bytes(self.root_hash)

    def prune_history(self, keep_roots: Optional[List[Hash]] = None) -> int:
        """Discard state deltas reachable neither from the current root nor
        from ``keep_roots``.  Returns bytes freed — the fast-sync payoff."""
        return self._trie.prune([self.root_hash, *(keep_roots or ())])


def _decode_call_args(data: bytes) -> Tuple[int, ...]:
    """Call data is a sequence of 32-byte big-endian words."""
    words = []
    for i in range(0, len(data) - len(data) % 32, 32):
        words.append(int.from_bytes(data[i : i + 32], "big"))
    return tuple(words)


def encode_call_args(*args: int) -> bytes:
    """Pack integers as contract call data (32-byte words)."""
    return b"".join((a & vm.WORD_MASK).to_bytes(32, "big") for a in args)
