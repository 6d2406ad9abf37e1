"""A networked tangle participant.

Wraps :class:`repro.dag.tangle.Tangle` in a
:class:`~repro.protocol.node.ProtocolNode`: transactions gossip through
the transport layer, out-of-order arrivals park in the intake layer until
their approved parents show up, and issuance picks tips from the node's
*local* view — so, as in Nano, "users are obligated to order their own
transactions" and there is no leader and no protocol throughput cap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import ReproError
from repro.common.types import Hash
from repro.crypto.keys import KeyPair
from repro.net.message import Message
from repro.protocol import DEFAULT_INTAKE_CAPACITY, ConsensusEngine, ProtocolNode
from repro.dag.tangle import Tangle, TangleTransaction, issue_transaction

MSG_TANGLE_TX = "tangle_tx"


@dataclass
class TangleNodeStats:
    issued: int = 0
    processed: int = 0
    parked: int = 0


class TangleConsensus(ConsensusEngine):
    """Cumulative-weight tip selection over a tangle (Section III-C).

    A transaction approves two parents; one missing parent parks it in
    the intake layer.  Known transactions short-circuit before any parent
    check — re-gossip of an attached transaction is a no-op.
    """

    paradigm = "dag-tangle"

    def __init__(self, node: "TangleNode") -> None:
        self._node = node

    def artifact_key(self, tx: TangleTransaction) -> Hash:
        return tx.tx_hash

    def is_known(self, key: Hash) -> bool:
        return key in self._node.tangle

    def missing_dependency(self, tx: TangleTransaction) -> Optional[Hash]:
        tangle = self._node.tangle
        for parent in (tx.trunk, tx.branch):
            if parent not in tangle:
                return parent
        return None

    def integrate(self, tx: TangleTransaction) -> bool:
        try:
            self._node.tangle.attach(tx)
        except ReproError:
            return False
        return True

    def on_applied(self, tx: TangleTransaction) -> None:
        self._node.stats.processed += 1


class TangleNode(ProtocolNode):
    """Full tangle node: replica + gossip + local tip selection."""

    def __init__(
        self,
        node_id: str,
        work_difficulty: float = 1.0,
        mcmc_alpha: float = 0.05,
        seed: int = 0,
        intake_capacity: Optional[int] = DEFAULT_INTAKE_CAPACITY,
    ) -> None:
        super().__init__(node_id, intake_capacity=intake_capacity)
        self.tangle = Tangle(work_difficulty=work_difficulty)
        self.mcmc_alpha = mcmc_alpha
        self.stats = TangleNodeStats()
        self.consensus = TangleConsensus(self)
        self._rng = random.Random(seed)

    # --------------------------------------------------------------- genesis

    def seed_genesis(self, keypair: KeyPair) -> TangleTransaction:
        return self.tangle.create_genesis(keypair)

    def install_genesis(self, genesis: TangleTransaction) -> None:
        """Adopt the shared genesis on a fresh replica."""
        self.tangle._txs[genesis.tx_hash] = genesis  # noqa: SLF001
        self.tangle._approvers[genesis.tx_hash] = []  # noqa: SLF001
        self.tangle._tips = {genesis.tx_hash}  # noqa: SLF001
        self.tangle.genesis_hash = genesis.tx_hash

    # -------------------------------------------------------------- issuance

    def issue(self, keypair: KeyPair, payload: bytes) -> TangleTransaction:
        """Create a transaction approving two locally selected tips."""
        if self.network is None:
            raise RuntimeError("attach the node to a network first")
        trunk, branch = self.tangle.select_tips_mcmc(self._rng, alpha=self.mcmc_alpha)
        tx = issue_transaction(
            keypair,
            trunk,
            branch,
            payload,
            timestamp=self.network.simulator.now,
            work_difficulty=(
                self.tangle.work_difficulty if self.tangle.work_difficulty > 1 else None
            ),
        )
        self.tangle.attach(tx)
        self.stats.issued += 1
        self.transport.publish(
            tx,
            Message(
                kind=MSG_TANGLE_TX,
                payload=tx,
                size_bytes=tx.size_bytes,
                dedup_key=tx.tx_hash,
            ),
        )
        return tx

    # --------------------------------------------------------------- gossip

    def handle_message(self, sender_id: str, message: Message) -> None:
        if message.kind == MSG_TANGLE_TX:
            self.ingest(message.payload)

    def on_parked(self, tx: TangleTransaction, missing: Hash) -> None:
        self.stats.parked += 1

    def retains_artifact(self, tx: TangleTransaction) -> bool:
        return tx.tx_hash in self.tangle
