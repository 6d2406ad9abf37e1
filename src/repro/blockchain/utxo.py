"""The UTXO set — Bitcoin's materialized ledger state.

Applying a block consumes inputs and creates outputs; each application
returns an :class:`UndoRecord` so the set can be rolled back when a soft
fork orphans the block (Section IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import DoubleSpendError, ValidationError
from repro.common.types import Address, TxId
from repro.blockchain.transaction import Transaction, TxOutput

Outpoint = Tuple[TxId, int]


@dataclass
class UndoRecord:
    """Everything needed to reverse one transaction's effect."""

    txid: TxId
    spent: List[Tuple[Outpoint, TxOutput]] = field(default_factory=list)
    created: List[Outpoint] = field(default_factory=list)


class UTXOSet:
    """Mapping of unspent outpoints to their outputs, with an address index."""

    def __init__(self) -> None:
        self._utxos: Dict[Outpoint, TxOutput] = {}
        self._by_address: Dict[Address, Dict[Outpoint, int]] = {}

    # ---------------------------------------------------------------- access

    def __len__(self) -> int:
        return len(self._utxos)

    def __contains__(self, outpoint: Outpoint) -> bool:
        return outpoint in self._utxos

    def get(self, outpoint: Outpoint) -> Optional[TxOutput]:
        return self._utxos.get(outpoint)

    def balance(self, address: Address) -> int:
        """Sum of unspent output values held by ``address``."""
        return sum(self._by_address.get(address, {}).values())

    def spendable(self, address: Address) -> List[Tuple[TxId, int, int]]:
        """(txid, index, value) triples spendable by ``address``."""
        entries = self._by_address.get(address, {})
        return [(txid, index, value) for (txid, index), value in sorted(entries.items())]

    def total_value(self) -> int:
        return sum(o.amount for o in self._utxos.values())

    # -------------------------------------------------------------- mutation

    def _add(self, outpoint: Outpoint, output: TxOutput) -> None:
        self._utxos[outpoint] = output
        self._by_address.setdefault(output.recipient, {})[outpoint] = output.amount

    def _remove(self, outpoint: Outpoint) -> TxOutput:
        output = self._utxos.pop(outpoint)
        per_address = self._by_address[output.recipient]
        del per_address[outpoint]
        if not per_address:
            del self._by_address[output.recipient]
        return output

    def apply_transaction(self, tx: Transaction) -> UndoRecord:
        """Spend the inputs and create the outputs of ``tx``.

        One pass: each input is popped in turn.  An input that is
        unknown, already spent or repeated within ``tx`` puts back what
        this call popped and raises :class:`DoubleSpendError`, so the set
        is left unchanged on failure.
        """
        txid = tx.txid
        undo = UndoRecord(txid=txid)
        if not tx.is_coinbase:
            for tx_input in tx.inputs:
                outpoint = tx_input.outpoint
                if outpoint not in self._utxos:
                    self.revert_transaction(undo)
                    raise DoubleSpendError(
                        f"tx {txid.short()} spends missing/spent output "
                        f"{outpoint[0].short()}:{outpoint[1]}"
                    )
                undo.spent.append((outpoint, self._remove(outpoint)))
        for index, output in enumerate(tx.outputs):
            outpoint = (txid, index)
            self._add(outpoint, output)
            undo.created.append(outpoint)
        return undo

    def revert_transaction(self, undo: UndoRecord) -> None:
        """Reverse a previously applied transaction (reorg path)."""
        for outpoint in reversed(undo.created):
            if outpoint in self._utxos:
                self._remove(outpoint)
        for outpoint, output in reversed(undo.spent):
            self._add(outpoint, output)

    def snapshot(self) -> "UTXOSet":
        """Independent copy of the set (checkpoint state-sync payload).

        Outpoints and outputs are immutable, so a shallow copy of the
        maps is a full logical copy.
        """
        clone = UTXOSet()
        clone._utxos = dict(self._utxos)
        clone._by_address = {
            address: dict(entries) for address, entries in self._by_address.items()
        }
        return clone

    def serialized_size_bytes(self) -> int:
        """Wire-size estimate of a snapshot: 36 bytes per outpoint
        (txid + index) plus 40 per output (amount + address)."""
        return len(self._utxos) * 76

    # ------------------------------------------------------------ valuation

    def fee(self, tx: Transaction) -> int:
        """Implicit miner fee: inputs minus outputs."""
        if tx.is_coinbase:
            return 0
        fee = -tx.total_output()
        for tx_input in tx.inputs:
            output = self._utxos.get(tx_input.outpoint)
            if output is None:
                raise ValidationError(
                    f"unknown input {tx_input.prev_txid.short()}:{tx_input.prev_index}"
                )
            fee += output.amount
        if fee < 0:
            raise ValidationError(f"tx {tx.txid.short()} creates value out of thin air")
        return fee
