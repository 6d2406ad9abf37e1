"""A networked Byteball-style participant.

Wraps :class:`repro.dag.byteball.ByteballDag` in a
:class:`~repro.protocol.node.ProtocolNode`, completing the fourth
paradigm on the shared stack: units gossip through the transport layer,
out-of-order arrivals park in the intake layer until every referenced
parent shows up, and issuance references tips from the node's *local*
view — ordering then comes from the witnessed main chain, not from the
issuer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.common.errors import ReproError
from repro.common.types import Address, Hash
from repro.crypto.keys import KeyPair
from repro.net.message import Message
from repro.protocol import ConsensusEngine, ProtocolNode
from repro.dag.byteball import ByteballDag, Unit, make_unit

MSG_BB_UNIT = "bb_unit"


@dataclass
class ByteballNodeStats:
    issued: int = 0
    processed: int = 0
    parked: int = 0


class ByteballConsensus(ConsensusEngine):
    """Witnessed main-chain total ordering (paper footnote 1).

    A unit referencing any not-yet-seen parent parks under the first
    missing one; when that parent integrates, the intake layer retries
    the unit (and finds the next missing parent, if another remains).
    """

    paradigm = "dag-witnessed"

    def __init__(self, node: "ByteballNode") -> None:
        self._node = node

    def artifact_key(self, unit: Unit) -> Hash:
        return unit.unit_hash

    def is_known(self, key: Hash) -> bool:
        return key in self._node.dag

    def missing_dependency(self, unit: Unit) -> Optional[Hash]:
        dag = self._node.dag
        for parent in unit.parents:
            if parent not in dag:
                return parent
        return None

    def integrate(self, unit: Unit) -> bool:
        try:
            self._node.dag.attach(unit)
        except ReproError:
            return False
        return True

    def on_applied(self, unit: Unit) -> None:
        self._node.stats.processed += 1


class ByteballNode(ProtocolNode):
    """Full witnessed-DAG node: replica + gossip + local tip references."""

    def __init__(
        self,
        node_id: str,
        witnesses: Sequence[Address],
        stability_depth: int = 3,
        max_parents: int = 2,
    ) -> None:
        super().__init__(node_id)
        self.dag = ByteballDag(witnesses, stability_depth=stability_depth)
        self.max_parents = max_parents
        self.stats = ByteballNodeStats()
        self.consensus = ByteballConsensus(self)

    # --------------------------------------------------------------- genesis

    def seed_genesis(self, keypair: KeyPair) -> Unit:
        return self.dag.create_genesis(keypair)

    def install_genesis(self, genesis: Unit) -> None:
        """Adopt the shared genesis on a fresh replica."""
        self.dag.install_genesis(genesis)

    # -------------------------------------------------------------- issuance

    def select_parents(self) -> List[Hash]:
        """The best tip plus up to ``max_parents - 1`` further tips, so
        each new unit both advances the witnessed main chain and merges
        side branches (tips are sorted — deterministic across replicas)."""
        best = self.dag.best_tip()
        parents = [best]
        for tip in self.dag.tips():
            if len(parents) >= self.max_parents:
                break
            if tip != best:
                parents.append(tip)
        return parents

    def issue(self, keypair: KeyPair, payload: bytes) -> Unit:
        """Create a unit referencing locally selected tips."""
        if self.network is None:
            raise RuntimeError("attach the node to a network first")
        unit = make_unit(
            keypair,
            self.select_parents(),
            payload,
            timestamp=self.network.simulator.now,
        )
        self.dag.attach(unit)
        self.stats.issued += 1
        self.transport.publish(unit, self._unit_message(unit))
        return unit

    def _unit_message(self, unit: Unit) -> Message:
        return Message(
            kind=MSG_BB_UNIT,
            payload=unit,
            size_bytes=unit.size_bytes,
            dedup_key=unit.unit_hash,
        )

    # --------------------------------------------------------------- gossip

    def handle_message(self, sender_id: str, message: Message) -> None:
        if message.kind == MSG_BB_UNIT:
            self.ingest_quietly(message.payload)

    def on_parked(self, unit: Unit, missing: Hash) -> None:
        self.stats.parked += 1

    def retains_artifact(self, unit: Unit) -> bool:
        return unit.unit_hash in self.dag

    # --------------------------------------------------------------- queries

    def is_stable(self, unit_hash: Hash) -> bool:
        """Irreversible per the witnessed main chain (total-order depth)."""
        return self.dag.is_stable(unit_hash)
