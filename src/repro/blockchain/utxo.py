"""The UTXO set — Bitcoin's materialized ledger state.

Applying a transaction consumes inputs and creates outputs and returns
the outputs it spent; with the transaction itself that is all a revert
needs, so the set can be rolled back when a soft fork orphans the block
(Section IV-A).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.errors import DoubleSpendError, ValidationError
from repro.common.types import Address, TxId
from repro.blockchain.transaction import Transaction, TxOutput

Outpoint = Tuple[TxId, int]


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

    def apply_transaction(self, tx: Transaction) -> Tuple[TxOutput, ...]:
        """Spend the inputs and create the outputs of ``tx``; returns the
        spent outputs in input order (empty for a coinbase).

        One pass: each input is popped in turn.  An input that is
        unknown, already spent or repeated within ``tx`` puts back what
        this call popped and raises :class:`DoubleSpendError`, so the set
        is left unchanged on failure.
        """
        txid = tx.txid
        spent: List[TxOutput] = []
        if not tx.is_coinbase:
            for tx_input in tx.inputs:
                outpoint = tx_input.outpoint
                if outpoint not in self._utxos:
                    self._unspend(tx.inputs[:len(spent)], spent)
                    raise DoubleSpendError(
                        f"tx {txid.short()} spends missing/spent output "
                        f"{outpoint[0].short()}:{outpoint[1]}"
                    )
                spent.append(self._remove(outpoint))
        for index, output in enumerate(tx.outputs):
            self._add((txid, index), output)
        return tuple(spent)

    def revert_transaction(self, tx: Transaction, spent: Tuple[TxOutput, ...]) -> None:
        """Reverse ``apply_transaction(tx)``, which returned ``spent``
        (reorg path)."""
        txid = tx.txid
        for index in range(len(tx.outputs) - 1, -1, -1):
            if (txid, index) in self._utxos:
                self._remove((txid, index))
        self._unspend(tx.inputs, spent)

    def _unspend(self, inputs, spent) -> None:
        """Put back ``spent``, the outputs ``inputs`` popped, last first."""
        for tx_input, output in zip(reversed(inputs), reversed(spent)):
            self._add(tx_input.outpoint, output)

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
