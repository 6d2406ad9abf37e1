"""Simplified Payment Verification — the blockchain light client.

Section V's pruning discussion implies the serving hierarchy: full nodes
hold everything, pruned nodes hold headers plus a recent window, and
light (SPV) clients hold *only headers*, verifying individual payments
with Merkle inclusion proofs against header commitments.  This module
implements that client: a header chain validated for linkage and PoW,
plus proof checking and the depth-based confidence rule of Section IV-A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.common.errors import InvalidProofOfWorkError, UnknownParentError, ValidationError
from repro.common.types import Hash, TxId
from repro.crypto.merkle import MerkleProof
from repro.blockchain.block import Block, BlockHeader
from repro.blockchain.chain import ChainStore


@dataclass(frozen=True)
class PaymentProof:
    """Everything an SPV client needs to verify one payment.

    Produced by a full node (:func:`make_payment_proof`), consumed by
    :meth:`SpvClient.verify_payment`.
    """

    txid: TxId
    block_id: Hash
    merkle_proof: MerkleProof


class SpvClient:
    """A headers-only client.

    Storage is ~200 bytes per block instead of full bodies — the
    lightest point on Section V's trade-off curve — at the price of
    trusting depth, not validation, for confirmation confidence.
    """

    def __init__(self, genesis_header: BlockHeader, check_pow: bool = True) -> None:
        if not genesis_header.parent_id.is_zero():
            raise ValidationError("SPV client must start from a genesis header")
        self._headers: Dict[Hash, BlockHeader] = {genesis_header.block_id: genesis_header}
        self._chain: List[Hash] = [genesis_header.block_id]
        self._check_pow = check_pow

    # ---------------------------------------------------------------- sync

    def add_header(self, header: BlockHeader) -> None:
        """Append the next header, validating linkage and proof of work.

        SPV clients follow a single presented chain; reorg handling
        (accepting a heavier competing chain of headers) is in
        :meth:`adopt_chain`.
        """
        if header.parent_id != self._chain[-1]:
            raise UnknownParentError(
                f"header {header.block_id.short()} does not extend the tip"
            )
        if header.height != len(self._chain):
            raise ValidationError("header height does not follow the tip")
        if self._check_pow and not header.check_proof_of_work():
            raise InvalidProofOfWorkError(
                f"header {header.block_id.short()} fails proof of work"
            )
        self._headers[header.block_id] = header
        self._chain.append(header.block_id)

    def adopt_chain(self, headers: List[BlockHeader]) -> bool:
        """Switch to a competing header chain if it carries more work.

        Returns True if adopted.  The competing chain must share this
        client's genesis and be internally valid.
        """
        if not headers or headers[0].block_id != self._chain[0]:
            return False
        candidate = SpvClient(headers[0], check_pow=self._check_pow)
        for header in headers[1:]:
            candidate.add_header(header)
        if candidate.total_work() <= self.total_work():
            return False
        self._headers = candidate._headers
        self._chain = candidate._chain
        return True

    def sync_from(self, chain: ChainStore) -> int:
        """Pull any missing main-chain headers from a full node."""
        added = 0
        for block in chain.main_chain()[len(self._chain):]:
            self.add_header(block.header)
            added += 1
        return added

    # --------------------------------------------------------------- queries

    @property
    def height(self) -> int:
        return len(self._chain) - 1

    def tip(self) -> BlockHeader:
        return self._headers[self._chain[-1]]

    def total_work(self) -> float:
        return sum(self._headers[h].work for h in self._chain)

    def storage_bytes(self) -> int:
        """What the client stores: headers only."""
        return sum(self._headers[h].size_bytes for h in self._chain)

    # ---------------------------------------------------------- verification

    def verify_payment(self, proof: PaymentProof) -> int:
        """Validate a payment proof; returns its confirmation count.

        Checks: (1) the block is on this client's header chain; (2) the
        Merkle path links the txid to that header's commitment.  The
        returned depth feeds the Section IV-A rule ("wait for six").
        """
        header = self._headers.get(proof.block_id)
        if header is None or proof.block_id not in self._chain:
            raise ValidationError("payment's block is not on the header chain")
        if proof.merkle_proof.leaf != proof.txid:
            raise ValidationError("proof is not about the claimed transaction")
        if not proof.merkle_proof.verify(header.merkle_root):
            raise ValidationError("Merkle proof does not match the header commitment")
        height = self._chain.index(proof.block_id)
        return self.height - height + 1

    def is_confirmed(self, proof: PaymentProof, depth: int) -> bool:
        return self.verify_payment(proof) >= depth


def make_payment_proof(block: Block, txid: TxId) -> PaymentProof:
    """Full-node side: build the SPV proof for a transaction in a block."""
    from repro.crypto.merkle import MerkleTree

    txids = [tx.txid for tx in block.transactions]
    try:
        index = txids.index(txid)
    except ValueError:
        raise ValidationError(
            f"tx {txid.short()} is not in block {block.block_id.short()}"
        ) from None
    tree = MerkleTree(txids)
    return PaymentProof(
        txid=txid, block_id=block.block_id, merkle_proof=tree.proof(index)
    )
