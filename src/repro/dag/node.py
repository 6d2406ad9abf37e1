"""A Nano network node (Sections II-B, III-B, IV-B, VI-B).

Each node keeps a full replica of the block-lattice, relays blocks and
votes, and — when it holds a representative key — votes on first sight of
every valid block and in every conflict election.  Account owners attached
to the node create their own send/receive blocks: "users are obligated to
order their own transactions".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.errors import (
    ForkDetectedError,
    GenesisMismatchError,
    ReproError,
    ValidationError,
)
from repro.common.types import Address, Hash
from repro.crypto.keys import KeyPair
from repro.net.message import Message
from repro.protocol import ConsensusEngine, ProtocolNode
from repro.dag.blocks import (
    BlockType,
    NanoBlock,
    make_change,
    make_open,
    make_receive,
    make_send,
)
from repro.dag.lattice import Lattice
from repro.dag.params import NanoParams
from repro.dag.voting import ElectionManager, Vote

MSG_NANO_BLOCK = "nano_block"
MSG_NANO_VOTE = "nano_vote"


@dataclass(frozen=True)
class VotePayload:
    """A vote on the wire, optionally bound to a conflict election."""

    vote: Vote
    #: For conflict votes: the contested (account, previous) root.
    conflict_account: Optional[Address] = None
    conflict_previous: Optional[Hash] = None

    @property
    def is_conflict_vote(self) -> bool:
        return self.conflict_account is not None


@dataclass
class NanoNodeStats:
    blocks_processed: int = 0
    blocks_rejected: int = 0
    forks_seen: int = 0
    votes_cast: int = 0
    votes_heard: int = 0
    rollbacks: int = 0
    receives_generated: int = 0


class NanoConsensus(ConsensusEngine):
    """Open Representative Voting over a block-lattice (Section III-B).

    The intake contract: a block missing its predecessor or source send
    parks under that hash (gossip gives no ordering guarantee, so a
    receive can overtake its send).  Duplicate detection is left to
    ``Lattice.process`` so rejected-duplicate accounting matches the
    pre-stack implementation exactly.
    """

    paradigm = "dag-lattice"

    def __init__(self, node: "NanoNode") -> None:
        self._node = node

    def artifact_key(self, block: NanoBlock) -> Hash:
        return block.block_hash

    def missing_dependency(self, block: NanoBlock) -> Optional[Hash]:
        lattice = self._node.lattice
        if not block.previous.is_zero() and block.previous not in lattice:
            return block.previous
        if block.block_type in (BlockType.OPEN, BlockType.RECEIVE):
            source = block.source
            if not source.is_zero() and source not in lattice:
                return source
        return None

    def integrate(self, block: NanoBlock) -> bool:
        node = self._node
        try:
            node.lattice.process(block)
        except ForkDetectedError:
            node.stats.forks_seen += 1
            node._handle_fork(block)
            return False
        except ValidationError:
            node.stats.blocks_rejected += 1
            raise
        node.stats.blocks_processed += 1
        return True

    def on_applied(self, block: NanoBlock) -> None:
        self._node._maybe_auto_receive(block)
        self._node._maybe_vote_on_sight(block)


class NanoNode(ProtocolNode):
    """Full DAG node with optional representative role."""

    def __init__(
        self,
        node_id: str,
        params: Optional[NanoParams] = None,
        representative_key: Optional[KeyPair] = None,
        auto_receive: bool = True,
        processing_tps: Optional[float] = None,
    ) -> None:
        super().__init__(node_id)
        self.params = params or NanoParams()
        self.lattice = Lattice(self.params)
        self.elections = ElectionManager(self.lattice.reps, self.params.quorum_fraction)
        self.representative_key = representative_key
        self.auto_receive = auto_receive
        self.stats = NanoNodeStats()
        self.consensus = NanoConsensus(self)
        #: Accounts whose keys this node holds (it creates their blocks).
        self.local_accounts: Dict[Address, KeyPair] = {}
        self._vote_sequence = 0
        self._conflict_buffer: Dict[Hash, NanoBlock] = {}
        #: Optional node-hardware model: service rate in blocks/second
        #: (Section VI-B — throughput "determined by the quality of
        #: consumer grade hardware").  None = infinitely fast hardware.
        self.processing_tps = processing_tps
        self._busy_until = 0.0
        #: Simulated time at which each block reached quorum here —
        #: feeds the confirmation-latency comparison (Section IV).
        self.confirmation_times: Dict[Hash, float] = {}

    # ------------------------------------------------------------- identity

    @property
    def is_representative(self) -> bool:
        return self.representative_key is not None

    @property
    def representative_address(self) -> Optional[Address]:
        return self.representative_key.address if self.representative_key else None

    def add_account(self, keypair: KeyPair) -> None:
        self.local_accounts[keypair.address] = keypair

    # ----------------------------------------------------------- user actions

    def seed_genesis(self, keypair: KeyPair, supply: int) -> NanoBlock:
        """Create the genesis transaction on this node's replica only;
        use the experiment harness to copy it to peers."""
        self.add_account(keypair)
        return self.lattice.create_genesis(keypair, supply)

    def send_payment(
        self, sender: Address, destination: Address, amount: int
    ) -> NanoBlock:
        """Create, apply and broadcast a send block (Figure 3's 'S')."""
        keypair = self._require_key(sender)
        chain = self.lattice.chain(sender)
        if chain is None:
            raise ValidationError(f"account {sender.short()} has no chain")
        block = make_send(
            keypair,
            previous=chain.head,
            destination=destination,
            amount=amount,
            work_difficulty=self.params.work_difficulty,
        )
        self._apply_and_broadcast(block)
        return block

    def change_representative(
        self, account: Address, representative: Address
    ) -> NanoBlock:
        """Rotate an account's representative (Section III-B: the choice
        "can be changed over time").  Moves the account's full weight to
        the new representative on every replica that processes it."""
        keypair = self._require_key(account)
        chain = self.lattice.chain(account)
        if chain is None:
            raise ValidationError(f"account {account.short()} has no chain")
        block = make_change(
            keypair,
            previous=chain.head,
            representative=representative,
            work_difficulty=self.params.work_difficulty,
        )
        self._apply_and_broadcast(block)
        return block

    def receive_pending(self, account: Address) -> List[NanoBlock]:
        """Settle every pending send to ``account`` (Figure 3's 'R').

        A node must be online and issue these blocks itself — "the
        downside of this approach is that a node has to be online in
        order to receive a transaction".
        """
        keypair = self._require_key(account)
        created: List[NanoBlock] = []
        for pending in self.lattice.pending_for(account):
            chain = self.lattice.chain(account)
            if chain is None:
                block = make_open(
                    keypair,
                    source=pending.source_hash,
                    amount=pending.amount,
                    representative=self._default_representative(),
                    work_difficulty=self.params.work_difficulty,
                )
            else:
                block = make_receive(
                    keypair,
                    previous=chain.head,
                    source=pending.source_hash,
                    amount=pending.amount,
                    work_difficulty=self.params.work_difficulty,
                )
            self._apply_and_broadcast(block)
            created.append(block)
            self.stats.receives_generated += 1
        return created

    def _default_representative(self) -> Address:
        if self.representative_key is not None:
            return self.representative_key.address
        if self.lattice.genesis_account is not None:
            return self.lattice.reps.representative_of(self.lattice.genesis_account)
        raise ValidationError("no representative available for new account")

    def _require_key(self, account: Address) -> KeyPair:
        keypair = self.local_accounts.get(account)
        if keypair is None:
            raise ValidationError(f"node holds no key for {account.short()}")
        return keypair

    def _apply_and_broadcast(self, block: NanoBlock) -> None:
        # The transport layer queues the message while offline and
        # republishes on reconnect (a wallet flushing its unconfirmed
        # sends) — without that, the rest of the network can never learn
        # the block and per-account heads diverge forever.
        self.ingest(block)
        self.transport.publish(block, self._block_message(block))

    def _block_message(self, block: NanoBlock) -> Message:
        return Message(
            kind=MSG_NANO_BLOCK,
            payload=block,
            size_bytes=block.size_bytes,
            dedup_key=block.block_hash,
        )

    def retains_artifact(self, block: NanoBlock) -> bool:
        return block.block_hash in self.lattice  # not rolled back since

    # --------------------------------------------------------------- gossip

    def handle_message(self, sender_id: str, message: Message) -> None:
        if message.kind == MSG_NANO_BLOCK:
            self._receive_block(message.payload)
        elif message.kind == MSG_NANO_VOTE:
            self._receive_vote(message.payload)

    def _receive_block(self, block: NanoBlock) -> None:
        if self.processing_tps is None or self.network is None:
            self.ingest_quietly(block)
            return
        # Hardware model: blocks queue behind a fixed per-block service
        # time; a saturated node processes at its capacity, no faster.
        sim = self.network.simulator
        service = 1.0 / self.processing_tps
        start = max(sim.now, self._busy_until)
        self._busy_until = start + service
        sim.schedule(
            self._busy_until - sim.now,
            lambda: self.ingest_quietly(block),
            label=f"dag-process:{self.node_id}",
        )

    # ------------------------------------------------------------- bootstrap

    def bootstrap_from(self, peer: "NanoNode") -> int:
        """Pull blocks this replica is missing from a peer's ledger.

        A node that was offline misses gossip permanently (Section II-B);
        real Nano nodes catch up through bootstrapping.  Blocks are
        ingested locally (no re-gossip); cross-chain ordering is handled
        by the unchecked buffer.  Returns the number of blocks adopted.
        Raises :class:`GenesisMismatchError` when this replica's genesis
        is not the peer's (a node that never ran ``install_genesis``
        would park every block forever).
        """
        genesis = self.lattice.genesis_account
        if genesis is None or genesis != peer.lattice.genesis_account:
            raise GenesisMismatchError(
                f"{self.node_id} cannot bootstrap from {peer.node_id}: "
                + ("no genesis installed" if genesis is None
                   else "the two lattices have different genesis accounts"))
        # Served in the peer's arrival order, which is already a
        # dependency order (each chain oldest-first, a send before the
        # open or receive that names it), so nothing parks and the intake
        # buffer's capacity never bounds what a replica can join.  The
        # skip guard re-checks membership at each block's turn — an
        # auto-receive minted mid-burst can collide with the peer's copy.
        before = self.stats.blocks_processed
        self.ingest_batch(peer.lattice.blocks_in_arrival_order(),
                          skip=lambda b: b.block_hash in self.lattice)
        return self.stats.blocks_processed - before

    def state_sync_from(self, peer: "NanoNode") -> int:
        """Adopt the peer's chain heads + pending table as a checkpoint.

        The live analogue of a *current* node (Section V-B): instead of
        replaying every block (``bootstrap_from``, impossible against a
        pruned peer whose predecessors are gone), install one head per
        account and the unsettled sends.  Returns chains installed.
        A replica with no genesis adopts the peer's; one whose genesis
        differs raises :class:`GenesisMismatchError` before anything is
        installed.
        """
        genesis = self.lattice.genesis_account
        if genesis is not None and genesis != peer.lattice.genesis_account:
            raise GenesisMismatchError(
                f"{self.node_id} cannot state-sync from {peer.node_id}: "
                "the two lattices have different genesis accounts")
        heads = [chain.head for chain in peer.lattice.chains() if chain.blocks]
        pending = [
            info for info in peer.lattice._pending.values()  # noqa: SLF001
        ]
        installed = self.lattice.install_frontier(heads, pending)
        if genesis is None:
            self.lattice.genesis_account = peer.lattice.genesis_account
        wire_bytes = sum(h.size_bytes for h in heads)
        for counters in (self.transport.counters, peer.transport.counters):
            counters.state_syncs += 1
            counters.state_sync_bytes += wire_bytes
        self.revive_intake()
        return installed

    # ---------------------------------------------------------------- forks

    def _handle_fork(self, challenger: NanoBlock) -> None:
        """Open an election between the applied successor and the
        challenger (Section III-B: representatives resolve the conflict)."""
        self._conflict_buffer[challenger.block_hash] = challenger
        if self.elections.is_confirmed(challenger.block_hash):
            # Votes outran the block: the network already reached quorum
            # on the challenger, so adopt it instead of electing.
            self._adopt_confirmed(challenger.block_hash)
            return
        incumbent = self._applied_successor(
            challenger.account, challenger.previous)
        candidates = [challenger.block_hash]
        if incumbent is not None:
            candidates.append(incumbent.block_hash)
            self._conflict_buffer[incumbent.block_hash] = incumbent
        self.elections.open_election(
            challenger.account, challenger.previous, candidates
        )
        # A representative votes for the version it saw first — the one
        # already on its chain.
        if self.representative_key is not None and incumbent is not None:
            vote = self._make_vote(incumbent.block_hash)
            payload = VotePayload(
                vote=vote,
                conflict_account=challenger.account,
                conflict_previous=challenger.previous,
            )
            self._record_conflict_vote(payload)
            self._broadcast_vote(payload)

    # ---------------------------------------------------------------- votes

    def _make_vote(self, block_hash: Hash) -> Vote:
        assert self.representative_key is not None
        self._vote_sequence += 1
        unsigned = Vote(
            representative=self.representative_key.address,
            block_hash=block_hash,
            sequence=self._vote_sequence,
            public_key=self.representative_key.public_key,
        )
        signature = self.representative_key.sign(unsigned.signed_payload())
        self.stats.votes_cast += 1
        return Vote(
            representative=unsigned.representative,
            block_hash=unsigned.block_hash,
            sequence=unsigned.sequence,
            public_key=unsigned.public_key,
            signature=signature,
        )

    def _maybe_vote_on_sight(self, block: NanoBlock) -> None:
        """"Representatives vote automatically on blocks they have not
        seen before ... the network automatically broadcasts consensus
        information while the transaction is making its way through."""
        if self.representative_key is None:
            return
        vote = self._make_vote(block.block_hash)
        payload = VotePayload(vote=vote)
        self._record_observation_vote(payload)
        self._broadcast_vote(payload)

    def _broadcast_vote(self, payload: VotePayload) -> None:
        if self.network is None:
            return
        self.broadcast(
            Message(
                kind=MSG_NANO_VOTE,
                payload=payload,
                size_bytes=payload.vote.size_bytes,
                dedup_key=None,
            )
        )

    def _receive_vote(self, payload: VotePayload) -> None:
        self.stats.votes_heard += 1
        if not payload.vote.verify():
            return
        if payload.is_conflict_vote:
            self._record_conflict_vote(payload)
        else:
            self._record_observation_vote(payload)

    def _record_observation_vote(self, payload: VotePayload) -> None:
        newly_confirmed = self.elections.record_observation_vote(payload.vote)
        if newly_confirmed:
            block_hash = payload.vote.block_hash
            if self.network is not None:
                self.confirmation_times[block_hash] = self.network.simulator.now
            if block_hash not in self.lattice:
                # Quorum confirmed a block we rejected as conflicting:
                # the network chose the other fork branch — adopt it.
                self._adopt_confirmed(block_hash)
            if block_hash in self.lattice:
                self.lattice.cement(block_hash)

    def _adopt_confirmed(self, winner: Hash) -> None:
        winning_block = self._conflict_buffer.get(winner)
        if winning_block is None:
            return
        if not self._roll_back_successor(winning_block.account,
                                         winning_block.previous):
            return
        # Adopt through the normal intake path, not lattice.process
        # directly: blocks parked in the unchecked buffer waiting on the
        # winner (a recipient's receive gossiped while we still held the
        # losing branch) must be retried, and auto-receive must fire.
        self.ingest_quietly(winning_block)

    def _record_conflict_vote(self, payload: VotePayload) -> None:
        assert payload.conflict_account is not None
        assert payload.conflict_previous is not None
        election = self.elections.election_for(
            payload.conflict_account, payload.conflict_previous
        )
        if election is None:
            election = self.elections.open_election(
                payload.conflict_account,
                payload.conflict_previous,
                [payload.vote.block_hash],
            )
        election.add_candidate(payload.vote.block_hash)
        winner = self.elections.record_conflict_vote(
            payload.conflict_account, payload.conflict_previous, payload.vote
        )
        if winner is not None:
            self._settle_election(
                payload.conflict_account, payload.conflict_previous, winner
            )

    def _settle_election(
        self, account: Address, contested_previous: Hash, winner: Hash
    ) -> None:
        """Adopt the winning block, rolling back a losing one if applied."""
        if winner in self.lattice:
            return  # our chain already holds the winner
        if not self._roll_back_successor(account, contested_previous):
            return  # cemented: this replica keeps its version
        winning_block = self._conflict_buffer.get(winner)
        if winning_block is not None:
            # Same intake path as gossip (see _adopt_confirmed): retries
            # unchecked dependents of the winner and settles auto-receives.
            self.ingest_quietly(winning_block)

    def _roll_back_successor(
        self, account: Address, contested_previous: Hash
    ) -> bool:
        """Roll back the block this replica applied on
        ``contested_previous``, if any, with everything built on it.

        Returns False, rolling back nothing, when that block is cemented.
        """
        incumbent = self._applied_successor(account, contested_previous)
        if incumbent is not None:
            try:
                removed = self.lattice.rollback(incumbent.block_hash)
            except ReproError:
                return False
            self.stats.rollbacks += len(removed)
        return True

    def _applied_successor(
        self, account: Address, contested_previous: Hash
    ) -> Optional[NanoBlock]:
        chain = self.lattice.chain(account)
        if chain is None:
            return None
        if contested_previous.is_zero():
            return chain.blocks[0] if chain.blocks else None
        for i, blk in enumerate(chain.blocks):
            if blk.block_hash == contested_previous and i + 1 < len(chain.blocks):
                return chain.blocks[i + 1]
        return None

    # ----------------------------------------------------------- auto-receive

    def _maybe_auto_receive(self, block: NanoBlock) -> None:
        """Settle an incoming send immediately when we hold the recipient
        key and auto-receive is on (an online wallet)."""
        if not self.auto_receive or block.block_type != BlockType.SEND:
            return
        destination = block.destination
        if destination in self.local_accounts:
            self.receive_pending(destination)

    # --------------------------------------------------------------- queries

    def is_confirmed(self, block_hash: Hash) -> bool:
        """Confirmed = majority representative vote (Section IV-B)."""
        return self.elections.is_confirmed(block_hash)

    def confirmation_confidence(self, block_hash: Hash) -> float:
        return self.elections.confirmation_confidence(block_hash)

    def balance(self, account: Address) -> int:
        return self.lattice.balance(account)
