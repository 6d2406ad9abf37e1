"""Block and transaction validation rules.

"The entries are checked for validity by all other nodes" (Section
III-A) — these are those checks.  Structural checks (PoW, Merkle root,
size caps) are separated from contextual checks (UTXO availability,
signatures, value conservation) so callers can validate headers first.

A UTXO block connects in one all-or-nothing pass, like Bitcoin Core's
``ConnectBlock``: per body transaction, check signatures, apply it (the
UTXO set spends each input or refuses) and read its fee off the spent
outputs; then check the coinbase against subsidy + fees and apply it
last.  A failure reverts what the pass applied; the dry run
(:func:`validate_block_transactions`) always reverts.  Trust rule:
signatures of txids in ``verified`` are not re-checked.  A replica
passes its mempool, which holds only transactions it verified or took
back from a block it connected; a txid commits to every input's key and
signature, so a re-signed sibling is a new txid and is checked in full.
"""

from __future__ import annotations

from typing import Container, List, Tuple

from repro.common.errors import InvalidProofOfWorkError, ValidationError
from repro.common.types import TxId
from repro.blockchain.block import Block
from repro.blockchain.gas import intrinsic_gas
from repro.blockchain.params import ChainParams
from repro.blockchain.transaction import AccountTransaction, Transaction, TxOutput
from repro.blockchain.utxo import UTXOSet

#: What :func:`apply_block` returns and :func:`revert_block` takes: the
#: block's transactions and every output they spent, in block order.
BlockUndo = Tuple[Tuple[Transaction, ...], Tuple[TxOutput, ...]]


def validate_block_structure(
    block: Block, params: ChainParams, check_pow: bool = True
) -> None:
    """Context-free checks: PoW, Merkle commitment, capacity caps."""
    if check_pow and params.consensus == "pow" and not block.is_genesis():
        if not block.header.check_proof_of_work():
            raise InvalidProofOfWorkError(
                f"block {block.block_id.short()} fails its proof of work"
            )
    if not block.merkle_root_matches():
        raise ValidationError(
            f"block {block.block_id.short()} Merkle root does not match its body"
        )
    if params.max_block_size_bytes is not None:
        if block.body_size_bytes > params.max_block_size_bytes:
            raise ValidationError(
                f"block {block.block_id.short()} body {block.body_size_bytes} B "
                f"exceeds cap {params.max_block_size_bytes} B"
            )
    if params.initial_gas_limit is not None:
        gas = sum(
            intrinsic_gas(tx)
            for tx in block.transactions
            if isinstance(tx, AccountTransaction)
        )
        if gas > params.initial_gas_limit:
            raise ValidationError(
                f"block {block.block_id.short()} uses {gas} gas, "
                f"over limit {params.initial_gas_limit}"
            )


def validate_transaction(tx: Transaction, utxo_set: UTXOSet) -> int:
    """Contextual UTXO-transaction checks; returns the implied fee."""
    if tx.is_coinbase:
        raise ValidationError("coinbase transactions are only valid inside a block")
    if not tx.verify_input_signatures():
        raise ValidationError(f"tx {tx.txid.short()} has an invalid signature")
    return utxo_set.fee(tx)  # raises on unknown inputs / value inflation


def _connect(
    block: Block, utxo_set: UTXOSet, params: ChainParams, verified: Container[TxId]
) -> Tuple[BlockUndo, int]:
    """Check and apply a UTXO block body in one pass; returns the undo
    and the total fees.  All or nothing."""
    txs = block.transactions
    if not txs:
        raise ValidationError("block has no transactions (missing coinbase)")
    coinbase, body = txs[0], txs[1:]
    if not isinstance(coinbase, Transaction) or not coinbase.is_coinbase:
        raise ValidationError("first transaction must be the coinbase")

    spent: List[TxOutput] = []
    applied = 0
    total_fees = 0
    try:
        for tx in body:
            if not isinstance(tx, Transaction):
                raise ValidationError("UTXO block contains a non-UTXO transaction")
            if tx.is_coinbase:
                raise ValidationError("only the first transaction may be a coinbase")
            if tx.txid not in verified and not tx.verify_input_signatures():
                raise ValidationError(f"tx {tx.txid.short()} has an invalid signature")
            outputs = utxo_set.apply_transaction(tx)
            applied += 1
            spent += outputs
            fee = sum(output.amount for output in outputs) - tx.total_output()
            if fee < 0:
                raise ValidationError(f"tx {tx.txid.short()} outputs exceed inputs")
            total_fees += fee
        max_coinbase = params.block_reward + total_fees
        if coinbase.total_output() > max_coinbase:
            raise ValidationError(
                f"coinbase pays {coinbase.total_output()}, max is {max_coinbase}"
            )
        # Applied last, so no body transaction can spend it.
        utxo_set.apply_transaction(coinbase)
    except ValidationError:
        revert_block((body[:applied], tuple(spent)), utxo_set)
        raise
    return (txs, tuple(spent)), total_fees


def validate_block_transactions(
    block: Block, utxo_set: UTXOSet, params: ChainParams
) -> int:
    """Contextual checks of a UTXO block body; returns total fees.

    Enforces: exactly one leading coinbase, no intra-block double spends,
    all inputs unspent, signatures valid, and coinbase value within
    subsidy + fees.  A dry run of the connect pass: ``utxo_set`` is
    reverted before this returns.
    """
    undo, total_fees = _connect(block, utxo_set, params, ())
    revert_block(undo, utxo_set)
    return total_fees


def apply_block(
    block: Block, utxo_set: UTXOSet, params: ChainParams, verified: Container[TxId] = ()
) -> BlockUndo:
    """Validate and apply a UTXO block; returns its undo.  Signatures of
    txids in ``verified`` are not re-checked.

    The undo reverses the block during a reorg (Section IV-A), also
    after pruning drops the stored body.
    """
    return _connect(block, utxo_set, params, verified)[0]


def revert_block(undo: BlockUndo, utxo_set: UTXOSet) -> None:
    """Reverse a previously applied block (reorg rollback path): the
    transactions last first, each taking back its own inputs' share from
    the end of the spent tuple."""
    txs, spent = undo
    end = len(spent)
    for tx in reversed(txs):
        start = end if tx.is_coinbase else end - len(tx.inputs)
        utxo_set.revert_transaction(tx, spent[start:end])
        end = start
