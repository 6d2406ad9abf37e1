"""The mempool: pending transactions awaiting inclusion.

Section VI opens with the pending-transaction backlogs of Bitcoin
(~187k) and Ethereum (~22k) — the mempool is where that backlog lives.
Selection is by fee rate (fee per byte for UTXO txs, gas price for
account txs), the policy real miners use.

Admission is a fee market (:class:`MempoolLimits`): a minimum fee rate,
byte/count caps with lowest-fee-rate eviction, and replace-by-fee for
conflicting transactions (same outpoint for UTXO, same sender+nonce for
accounts).  The default limits are unbounded, which reproduces the
historical unlimited-pool behaviour bit-for-bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.common.types import TxId
from repro.blockchain.gas import intrinsic_gas
from repro.blockchain.transaction import AccountTransaction, Transaction

AnyTx = Union[Transaction, AccountTransaction]
FeeOracle = Callable[[Transaction], int]

#: Outpoint spent by a UTXO transaction input.
_Outpoint = Tuple[TxId, int]
#: (sender address bytes, nonce) slot an account transaction occupies.
_NonceSlot = Tuple[bytes, int]

#: Remembered fees of removed transactions (readmit-after-reorg path)
#: are bounded so a long soak cannot grow the map without limit.
_FEE_MEMORY_CAP = 100_000
#: Stale eviction-heap records tolerated beyond one per live transaction.
_HEAP_SLACK = 64


@dataclass(frozen=True)
class MempoolLimits:
    """Fee-market admission policy.  The defaults disable every limit."""

    #: maximum transactions held (None = unbounded)
    max_count: Optional[int] = None
    #: maximum total transaction bytes held (None = unbounded)
    max_bytes: Optional[int] = None
    #: reject transactions under this fee rate (fee per byte)
    min_fee_rate: float = 0.0
    #: a replacement must beat the incumbent's price by this factor
    #: (1.0 = any strictly higher bid wins, BIP125 uses 1.1-ish)
    replacement_factor: float = 1.0

    @property
    def bounded(self) -> bool:
        return self.max_count is not None or self.max_bytes is not None


class Mempool:
    """Pending-transaction pool with fee-ordered block template selection."""

    def __init__(
        self,
        fee_oracle: Optional[FeeOracle] = None,
        limits: Optional[MempoolLimits] = None,
    ) -> None:
        self._txs: Dict[TxId, AnyTx] = {}
        self._fees: Dict[TxId, int] = {}
        self._fee_oracle = fee_oracle
        self.limits = limits or MempoolLimits()
        #: running byte total — ``size_bytes`` is O(1), not a scan
        self._bytes = 0
        #: outpoint -> txid spending it (UTXO conflict/RBF index)
        self._by_outpoint: Dict[_Outpoint, TxId] = {}
        #: (sender, nonce) -> txid occupying the slot (account RBF index)
        self._by_nonce_slot: Dict[_NonceSlot, TxId] = {}
        #: fees of removed txs, so a reorg readmit keeps its original bid
        self._fee_memory: Dict[TxId, int] = {}
        #: lazy min-heap of (fee_rate, seq, txid), kept by bounded pools
        self._rate_heap: List[Tuple[float, int, TxId]] = []
        self._heap_seq = 0
        self.total_accepted = 0
        self.total_dropped = 0
        self.total_replaced = 0
        self.total_rejected_fee = 0
        self.total_rejected_full = 0
        self.total_rejected_replacement = 0

    # ---------------------------------------------------------------- access

    def __len__(self) -> int:
        return len(self._txs)

    def __contains__(self, txid: TxId) -> bool:
        return txid in self._txs

    def get(self, txid: TxId) -> Optional[AnyTx]:
        return self._txs.get(txid)

    def pending(self) -> List[AnyTx]:
        return list(self._txs.values())

    def size_bytes(self) -> int:
        return self._bytes

    def counters(self) -> Dict[str, float]:
        """Backpressure accounting in the flat ``layer.metric`` namespace
        (merged into node layer counters → ``LedgerStats.extra``)."""
        return {
            "mempool.accepted": float(self.total_accepted),
            "mempool.dropped": float(self.total_dropped),
            "mempool.replaced": float(self.total_replaced),
            "mempool.rejected_fee": float(self.total_rejected_fee),
            "mempool.rejected_full": float(self.total_rejected_full),
            "mempool.rejected_replacement": float(self.total_rejected_replacement),
            "mempool.backlog": float(len(self._txs)),
            "mempool.backlog_bytes": float(self._bytes),
        }

    # -------------------------------------------------------------- mutation

    def add(self, tx: AnyTx, fee: Optional[int] = None) -> bool:
        """Admit a transaction under the fee-market policy.

        Returns False when already present, priced under the floor,
        outbid by an existing conflict, or squeezed out by the caps.  A
        conflicting transaction that outbids its incumbent (higher gas
        price / fee rate) replaces it — replace-by-fee.
        """
        if tx.txid in self._txs:
            return False
        fee = self._resolve_fee(tx, fee)
        rate = fee / max(tx.size_bytes, 1)

        conflicts = self._conflicts_of(tx)
        if conflicts:
            if not self._outbids(tx, rate, conflicts):
                self.total_rejected_replacement += 1
                return False
            for victim in conflicts:
                self.remove(victim)
                self.total_replaced += 1

        limits = self.limits
        if limits.min_fee_rate and rate < limits.min_fee_rate:
            self.total_rejected_fee += 1
            return False
        if limits.bounded and not self._make_room(tx, rate):
            self.total_rejected_full += 1
            return False

        self._txs[tx.txid] = tx
        self._fees[tx.txid] = fee
        self._bytes += tx.size_bytes
        self._index(tx)
        if limits.bounded:
            self._heap_seq += 1
            heapq.heappush(self._rate_heap, (rate, self._heap_seq, tx.txid))
        self.total_accepted += 1
        return True

    def _resolve_fee(self, tx: AnyTx, fee: Optional[int]) -> int:
        if fee is not None:
            return fee
        remembered = self._fee_memory.pop(tx.txid, None)
        if remembered:
            # A reorged transaction keeps its recorded bid instead of
            # being repriced (readmit used to reset the fee to zero and
            # starve the transaction behind fresh traffic).
            return remembered
        if isinstance(tx, AccountTransaction):
            return intrinsic_gas(tx) * tx.gas_price
        if self._fee_oracle is not None:
            return self._fee_oracle(tx)
        return 0

    def _conflicts_of(self, tx: AnyTx) -> List[TxId]:
        found: List[TxId] = []
        if isinstance(tx, AccountTransaction):
            incumbent = self._by_nonce_slot.get((bytes(tx.sender), tx.nonce))
            if incumbent is not None:
                found.append(incumbent)
        elif isinstance(tx, Transaction) and not tx.is_coinbase:
            for tx_input in tx.inputs:
                incumbent = self._by_outpoint.get(tx_input.outpoint)
                if incumbent is not None and incumbent not in found:
                    found.append(incumbent)
        return found

    def _outbids(self, tx: AnyTx, rate: float, conflicts: List[TxId]) -> bool:
        factor = self.limits.replacement_factor
        if isinstance(tx, AccountTransaction):
            for txid in conflicts:
                incumbent = self._txs[txid]
                assert isinstance(incumbent, AccountTransaction)
                if tx.gas_price <= incumbent.gas_price * factor:
                    return False
            return True
        return all(rate > self._fee_rate(txid) * factor for txid in conflicts)

    def _make_room(self, tx: AnyTx, rate: float) -> bool:
        """Evict lowest-fee-rate entries until ``tx`` fits; refuse if the
        newcomer does not outbid the cheapest incumbent (mempool-full
        backpressure, the real min-relay-fee ratchet)."""
        while self._over_capacity(tx):
            victim = self._cheapest()
            if victim is None:
                return False
            victim_rate, txid = victim
            if victim_rate >= rate:
                return False
            self.remove(txid)
            self.total_dropped += 1
        return True

    def _over_capacity(self, tx: AnyTx) -> bool:
        limits = self.limits
        if limits.max_count is not None and len(self._txs) + 1 > limits.max_count:
            return True
        if (
            limits.max_bytes is not None
            and self._bytes + tx.size_bytes > limits.max_bytes
        ):
            return True
        return False

    def _cheapest(self) -> Optional[Tuple[float, TxId]]:
        """Lowest-fee-rate entry, discarding stale heap records."""
        heap = self._rate_heap
        while heap:
            rate, _, txid = heap[0]
            if txid in self._txs and self._fee_rate(txid) == rate:
                return rate, txid
            heapq.heappop(heap)
        return None

    def _compact_rate_heap(self) -> None:
        """Keep each live txid's first valid record: ``_cheapest`` sees
        the same minimum, and a sorted list is a heap."""
        live: Dict[TxId, Tuple[float, int, TxId]] = {}
        for record in sorted(self._rate_heap):
            rate, _, txid = record
            if txid not in live and txid in self._txs and self._fee_rate(txid) == rate:
                live[txid] = record
        self._rate_heap = list(live.values())

    def _index(self, tx: AnyTx) -> None:
        if isinstance(tx, AccountTransaction):
            self._by_nonce_slot[(bytes(tx.sender), tx.nonce)] = tx.txid
        elif isinstance(tx, Transaction) and not tx.is_coinbase:
            for tx_input in tx.inputs:
                self._by_outpoint[tx_input.outpoint] = tx.txid

    def _unindex(self, tx: AnyTx) -> None:
        if isinstance(tx, AccountTransaction):
            slot = (bytes(tx.sender), tx.nonce)
            if self._by_nonce_slot.get(slot) == tx.txid:
                del self._by_nonce_slot[slot]
        elif isinstance(tx, Transaction) and not tx.is_coinbase:
            for tx_input in tx.inputs:
                if self._by_outpoint.get(tx_input.outpoint) == tx.txid:
                    del self._by_outpoint[tx_input.outpoint]

    def remove(self, txid: TxId) -> Optional[AnyTx]:
        tx = self._txs.pop(txid, None)
        fee = self._fees.pop(txid, None)
        if tx is None:
            return None
        self._bytes -= tx.size_bytes
        self._unindex(tx)
        if len(self._rate_heap) > 2 * len(self._txs) + _HEAP_SLACK:
            self._compact_rate_heap()
        if fee is not None:
            if len(self._fee_memory) >= _FEE_MEMORY_CAP:
                self._fee_memory.clear()
            self._fee_memory[txid] = fee
        return tx

    def remove_included(self, txs: Iterable[AnyTx]) -> int:
        """Drop transactions that made it into a block, plus any pool
        entries they conflict with (their inputs/nonce slots are gone)."""
        removed = 0
        for tx in txs:
            if self.remove(tx.txid) is not None:
                removed += 1
            for stale in self._conflicts_of(tx):
                self.remove(stale)
                self.total_dropped += 1
        return removed

    def readmit(self, txs: Iterable[AnyTx]) -> int:
        """Return orphaned transactions to the pool (Section IV-A:
        "orphaned transactions need to be included in a new block").
        The original fee survives via the remembered-fee map."""
        readmitted = 0
        for tx in txs:
            if getattr(tx, "is_coinbase", False):
                continue  # a coinbase only exists in its own block
            if self.add(tx):
                readmitted += 1
        return readmitted

    # -------------------------------------------------------------- selection

    def _fee_rate(self, txid: TxId) -> float:
        tx = self._txs[txid]
        return self._fees[txid] / max(tx.size_bytes, 1)

    def select_by_size(self, max_bytes: int) -> List[AnyTx]:
        """Greedy fee-rate-ordered selection under a byte cap (Bitcoin)."""
        chosen: List[AnyTx] = []
        used = 0
        for txid in sorted(self._txs, key=self._fee_rate, reverse=True):
            tx = self._txs[txid]
            if used + tx.size_bytes > max_bytes:
                continue
            chosen.append(tx)
            used += tx.size_bytes
        return chosen

    def select_by_gas(self, gas_limit: int) -> List[AccountTransaction]:
        """Greedy gas-price-ordered selection under a gas cap (Ethereum)."""
        account_txs = [
            tx for tx in self._txs.values() if isinstance(tx, AccountTransaction)
        ]
        chosen: List[AccountTransaction] = []
        used = 0
        for tx in sorted(account_txs, key=lambda t: t.gas_price, reverse=True):
            cost = intrinsic_gas(tx)
            if used + cost > gas_limit:
                continue
            chosen.append(tx)
            used += cost
        return chosen

    def evict(self, keep: int) -> int:
        """Drop the lowest-fee-rate transactions beyond ``keep`` entries."""
        if len(self._txs) <= keep:
            return 0
        ranked = sorted(self._txs, key=self._fee_rate, reverse=True)
        dropped = 0
        for txid in ranked[keep:]:
            self.remove(txid)
            dropped += 1
        self.total_dropped += dropped
        return dropped
