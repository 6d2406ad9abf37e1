"""A HotStuff-style quorum-certificate BFT engine.

Two-phase chained commit over a rotating leader (leader of view ``v`` is
``v mod n``): the leader proposes a block extending its highest known
quorum certificate, replicas send *prepare* votes back to the leader,
a prepare QC locks the block and solicits *commit* votes, and a commit
QC finalizes the block plus every uncommitted ancestor.  A view that
makes no progress times out locally; the replica broadcasts a NEW_VIEW
carrying its high QC and moves on, so a crashed or silent leader costs
one timeout, not liveness (the liveness-after-timeout invariant the
fuzzer enforces).

Votes and certificates are *simulated-crypto*: a vote is a claim carried
in a message, not a verified signature, so Byzantine behaviour is
modelled behaviourally (``is_byzantine`` + a behaviour tag) rather than
cryptographically.  The safety argument is the classical one: with
``quorum = n - f`` and ``f < n/3``, two quorums intersect in
``n - 2f > f`` replicas, at least one of which is honest and votes once
per view/phase — so conflicting blocks cannot both gain certificates.
The seeded-violation fuzz profile demonstrates the converse at
``f >= n/3`` by over-riding ``f`` (quorum shrinks) and letting colluding
equivocators certify two siblings.

The engine is a :class:`~repro.protocol.interfaces.ConsensusEngine`:
proposals flow through the shared transport/intake pipeline (a proposal
whose parent has not arrived parks under the parent id), while votes,
certificates and view-change messages are consensus *control* traffic
handled directly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from random import Random
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.common.types import Hash
from repro.net.message import Message
from repro.protocol import ConsensusEngine, ProtocolNode

MSG_BFT_PROPOSAL = "bft_proposal"
MSG_BFT_VOTE = "bft_vote"
MSG_BFT_QC = "bft_qc"
MSG_BFT_NEW_VIEW = "bft_new_view"
MSG_BFT_TX = "bft_tx"

PHASE_PREPARE = "prepare"
PHASE_COMMIT = "commit"

#: Byzantine behaviour families understood by :class:`BftNode`.
BYZ_EQUIVOCATE = "equivocate"  # conflicting proposals + double votes
BYZ_WITHHOLD = "withhold"      # silent leader, withheld votes

_PAYMENT_SIZE_BYTES = 64
_VOTE_SIZE_BYTES = 80
_QC_BASE_SIZE_BYTES = 48
_BLOCK_BASE_SIZE_BYTES = 120


def default_f(validator_count: int) -> int:
    """Largest tolerable fault count: f = floor((n - 1) / 3)."""
    return max(0, (validator_count - 1) // 3)


def _digest(*parts: bytes) -> Hash:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return Hash(h.digest())


@dataclass(frozen=True)
class BftPayment:
    """A replicated-state-machine command: move ``amount`` between
    account indices.  Identified by a caller-supplied hash."""

    payment_id: Hash
    sender: int
    recipient: int
    amount: int

    @property
    def size_bytes(self) -> int:
        return _PAYMENT_SIZE_BYTES


@dataclass(frozen=True)
class QuorumCert:
    """``len(voters)`` replicas certified ``block_id`` at ``(view, phase)``."""

    block_id: Hash
    view: int
    phase: str
    voters: FrozenSet[int]

    @property
    def size_bytes(self) -> int:
        return _QC_BASE_SIZE_BYTES + 8 * len(self.voters)

    def identity(self) -> bytes:
        voters = ",".join(str(v) for v in sorted(self.voters))
        return (f"qc:{self.block_id.hex}:{self.view}:{self.phase}:"
                f"{voters}").encode()


@dataclass(frozen=True)
class Vote:
    """One replica's (claimed) signature over a block at a phase."""

    block_id: Hash
    view: int
    phase: str
    voter: int


@dataclass(frozen=True)
class NewView:
    """Timeout message: the sender enters ``view`` carrying its high QC."""

    view: int
    high_qc: QuorumCert
    sender: int


@dataclass(frozen=True)
class BftBlock:
    """A proposal: payload batch + the QC justifying its extension.

    ``marker`` disambiguates equivocating siblings — an adversarial
    leader mints two blocks for one view that differ only here, which is
    exactly the "two conflicting blocks in one view" the safety
    invariant is about.
    """

    view: int
    parent: Hash
    proposer: int
    payments: Tuple[BftPayment, ...]
    justify: Optional[QuorumCert]
    marker: int = 0

    @property
    def block_id(self) -> Hash:
        cached = getattr(self, "_block_id", None)
        if cached is None:
            justify = b"" if self.justify is None else self.justify.identity()
            cached = _digest(
                f"blk:{self.view}:{self.proposer}:{self.marker}".encode(),
                bytes(self.parent),
                justify,
                *(bytes(p.payment_id) for p in self.payments),
            )
            object.__setattr__(self, "_block_id", cached)
        return cached

    @property
    def size_bytes(self) -> int:
        justify = 0 if self.justify is None else self.justify.size_bytes
        return (_BLOCK_BASE_SIZE_BYTES + justify
                + sum(p.size_bytes for p in self.payments))


def genesis_block() -> BftBlock:
    return BftBlock(view=0, parent=Hash.zero(), proposer=-1,
                    payments=(), justify=None)


@dataclass
class BftNodeStats:
    """Engine counters; surfaced as ``consensus.*`` layer counters."""

    proposals_made: int = 0
    votes_sent: int = 0
    votes_received: int = 0
    qcs_formed: int = 0
    view_changes: int = 0
    timeouts: int = 0
    commits: int = 0
    payments_applied: int = 0
    payments_rejected: int = 0
    equivocations_sent: int = 0
    equivocations_detected: int = 0
    double_votes_detected: int = 0
    votes_withheld: int = 0


class HotStuffEngine(ConsensusEngine):
    """Adapter between :class:`BftNode` and the shared ingest pipeline.

    Only *proposals* are stack artifacts (they have the parent-hash
    dependency structure the intake layer parks on); votes/QCs are
    control traffic the node handles directly.
    """

    paradigm = "bft"

    def __init__(self, node: "BftNode") -> None:
        self._node = node

    def artifact_key(self, block: BftBlock) -> Hash:
        return block.block_id

    def is_known(self, key: Hash) -> bool:
        return key in self._node.blocks

    def missing_dependency(self, block: BftBlock) -> Optional[Hash]:
        if block.parent not in self._node.blocks:
            return block.parent
        return None

    def integrate(self, block: BftBlock) -> bool:
        return self._node._attach_block(block)

    def on_applied(self, block: BftBlock) -> None:
        self._node._after_block(block)

    def counters(self) -> Dict[str, float]:
        s = self._node.stats
        return {
            "proposals_made": float(s.proposals_made),
            "votes_sent": float(s.votes_sent),
            "votes_received": float(s.votes_received),
            "qcs_formed": float(s.qcs_formed),
            "view_changes": float(s.view_changes),
            "timeouts": float(s.timeouts),
            "commits": float(s.commits),
            "equivocations_sent": float(s.equivocations_sent),
            "equivocations_detected": float(s.equivocations_detected),
            "double_votes_detected": float(s.double_votes_detected),
            "votes_withheld": float(s.votes_withheld),
        }


class BftNode(ProtocolNode):
    """One replica of the quorum-certificate state machine.

    Lifecycle: construct all replicas, attach them to a network, call
    :meth:`configure_validators` with the full ordered roster, fund the
    account set identically everywhere, then :meth:`start` each replica
    (arms view 1's timeout).  Traffic then drives everything: payments
    gossip to the whole roster, the current leader batches them into a
    proposal, and commit certificates advance every replica's identical
    committed sequence.
    """

    #: A leader waits this long before proposing, so a burst batches.
    propose_delay_s = 0.25

    def __init__(
        self,
        node_id: str,
        *,
        view_timeout_s: float = 4.0,
        max_batch: int = 16,
        quorum_f_override: Optional[int] = None,
        is_byzantine: bool = False,
        byzantine_behavior: Optional[str] = None,
        byz_rng: Optional[Random] = None,
    ) -> None:
        super().__init__(node_id)
        self.view_timeout_s = view_timeout_s
        self.max_batch = max_batch
        self.quorum_f_override = quorum_f_override
        self.is_byzantine = is_byzantine
        self.byzantine_behavior = byzantine_behavior if is_byzantine else None
        self.byz_rng = byz_rng
        #: Fellow adversary node ids (a single adversary controls all of
        #: its replicas, the standard BFT threat model); used to share
        #: equivocating material.
        self.colluders: Tuple[str, ...] = ()

        self.stats = BftNodeStats()
        self.consensus = HotStuffEngine(self)

        genesis = genesis_block()
        self.genesis_id = genesis.block_id
        self.blocks: Dict[Hash, BftBlock] = {self.genesis_id: genesis}
        seed_qc = QuorumCert(self.genesis_id, 0, PHASE_PREPARE, frozenset())
        self.high_qc = seed_qc
        self.locked_qc = seed_qc
        self.committed: List[Hash] = [self.genesis_id]
        self._committed_set: Set[Hash] = {self.genesis_id}
        self.balances: Dict[int, int] = {}
        self.committed_payments: Dict[Hash, float] = {}
        self.pending: Dict[Hash, BftPayment] = {}

        self.validator_ids: Tuple[str, ...] = ()
        self.index = -1
        self.current_view = 0
        self._view_epoch = 0
        self._started = False
        self._proposed_view = -1
        self._propose_pending = False
        self._votes: Dict[Tuple[Hash, str], Set[int]] = {}
        self._vote_seen: Dict[Tuple[int, str, int], Hash] = {}
        self._voted: Set[Tuple[int, str]] = set()
        self._qc_done: Set[Tuple[Hash, str]] = set()
        self._pending_qcs: Dict[Hash, List[QuorumCert]] = {}
        self._proposals_seen: Dict[int, Dict[int, Hash]] = {}

    # ----------------------------------------------------------------- setup

    def configure_validators(self, validator_ids: Sequence[str]) -> None:
        """Install the shared ordered roster; derives this replica's index."""
        self.validator_ids = tuple(validator_ids)
        self.index = self.validator_ids.index(self.node_id)

    @property
    def validator_count(self) -> int:
        return len(self.validator_ids)

    @property
    def f(self) -> int:
        if self.quorum_f_override is not None:
            return self.quorum_f_override
        return default_f(self.validator_count)

    @property
    def quorum(self) -> int:
        """Adjustable quorum threshold n − f."""
        return max(1, self.validator_count - self.f)

    def fund(self, balances: Dict[int, int]) -> None:
        """Install the (identical-everywhere) genesis account balances."""
        self.balances = dict(balances)

    def start(self) -> None:
        """Enter view 1 and arm its timeout."""
        if self.network is None:
            raise RuntimeError("attach the node to a network first")
        if self._started:
            return
        self._started = True
        self._enter_view(1)

    def leader_of(self, view: int) -> int:
        return view % self.validator_count

    @property
    def committed_height(self) -> int:
        """Committed blocks beyond genesis."""
        return len(self.committed) - 1

    # ------------------------------------------------------------ view logic

    def _enter_view(self, view: int) -> None:
        if view <= self.current_view and self._started and view != 1:
            return
        self.current_view = view
        self._view_epoch += 1
        self._propose_pending = False
        epoch = self._view_epoch
        sim = self.network.simulator
        sim.schedule(self.view_timeout_s, lambda: self._on_timeout(epoch),
                     label=f"bft:timeout:{self.node_id}")
        self._maybe_propose()

    def _on_timeout(self, epoch: int) -> None:
        """The view made no progress on this replica's clock: move on.

        Timeouts fire even while crashed (the local clock keeps running),
        which keeps view numbers loosely synchronized across restarts;
        only the NEW_VIEW broadcast needs the node online.
        """
        if epoch != self._view_epoch:
            return
        self.stats.timeouts += 1
        self.stats.view_changes += 1
        next_view = self.current_view + 1
        if self.online and self.validator_ids:
            nv = NewView(view=next_view, high_qc=self.high_qc,
                         sender=self.index)
            self.broadcast(Message(
                kind=MSG_BFT_NEW_VIEW, payload=nv,
                size_bytes=16 + nv.high_qc.size_bytes,
                dedup_key=_digest(
                    f"nv:{next_view}:{self.index}".encode()),
            ))
        self._enter_view(next_view)

    # -------------------------------------------------------------- proposing

    def _maybe_propose(self) -> None:
        """Schedule a proposal if this replica leads the current view,
        has not proposed in it, and has payload to commit."""
        if not self._started or self.validator_count == 0:
            return
        if self.leader_of(self.current_view) != self.index:
            return
        if self._proposed_view >= self.current_view or self._propose_pending:
            return
        if self.byzantine_behavior == BYZ_WITHHOLD:
            # Silent leader: its views die by timeout (the
            # liveness-after-timeout path).  The family's rng stream can
            # let it participate intermittently.
            if self.byz_rng is None or self.byz_rng.random() < 0.9:
                return
        if not self._available_payments():
            return
        self._propose_pending = True
        epoch = self._view_epoch
        self.network.simulator.schedule(
            self.propose_delay_s, lambda: self._propose(epoch),
            label=f"bft:propose:{self.node_id}")

    def _available_payments(self) -> List[BftPayment]:
        ready = [p for pid, p in self.pending.items()
                 if pid not in self.committed_payments]
        ready.sort(key=lambda p: bytes(p.payment_id))
        return ready[: self.max_batch]

    def _propose(self, epoch: int) -> None:
        if epoch != self._view_epoch or not self.online:
            return
        self._propose_pending = False
        view = self.current_view
        if self.leader_of(view) != self.index or self._proposed_view >= view:
            return
        payments = self._available_payments()
        if not payments:
            return
        justify = self.high_qc
        parent = justify.block_id
        self._proposed_view = view
        self.stats.proposals_made += 1
        if self.byzantine_behavior == BYZ_EQUIVOCATE:
            self._propose_equivocating(view, parent, justify, payments)
            return
        block = BftBlock(view=view, parent=parent, proposer=self.index,
                         payments=tuple(payments), justify=justify)
        self.ingest(block)
        self.transport.publish(block, self._proposal_message(block))

    def _propose_equivocating(self, view: int, parent: Hash,
                              justify: QuorumCert,
                              payments: List[BftPayment]) -> None:
        """Mint two conflicting sibling proposals for one view.

        Both are flooded (every honest replica eventually detects the
        equivocation); the family's rng stream decides which sibling is
        announced first, so the victims' first-vote split varies by
        seed.
        """
        variants = [
            BftBlock(view=view, parent=parent, proposer=self.index,
                     payments=tuple(payments), justify=justify, marker=0),
            BftBlock(view=view, parent=parent, proposer=self.index,
                     payments=tuple(payments), justify=justify, marker=1),
        ]
        if self.byz_rng is not None and self.byz_rng.random() < 0.5:
            variants.reverse()
        self.stats.equivocations_sent += 1
        for block in variants:
            self.ingest(block)
            self.transport.publish(block, self._proposal_message(block))

    def _proposal_message(self, block: BftBlock) -> Message:
        return Message(kind=MSG_BFT_PROPOSAL, payload=block,
                       size_bytes=block.size_bytes,
                       dedup_key=block.block_id)

    # ------------------------------------------------- engine callbacks

    def _attach_block(self, block: BftBlock) -> bool:
        parent = self.blocks.get(block.parent)
        if parent is None:
            return False
        if block.view <= parent.view:
            return False
        if self.validator_count and block.proposer != self.leader_of(block.view):
            return False
        self.blocks[block.block_id] = block
        return True

    def _after_block(self, block: BftBlock) -> None:
        for qc in self._pending_qcs.pop(block.block_id, ()):
            self._process_qc(qc)
        if block.justify is not None:
            self._process_qc(block.justify)
        seen = self._proposals_seen.setdefault(block.view, {})
        first = seen.get(block.proposer)
        if first is None:
            seen[block.proposer] = block.block_id
        elif first != block.block_id:
            self.stats.equivocations_detected += 1
        if block.view > self.current_view:
            # Catch up: a certified chain is ahead of our pacemaker.
            self._enter_view(block.view)
        self._maybe_vote(block, PHASE_PREPARE)

    # ----------------------------------------------------------------- votes

    def _safe_to_vote(self, block: BftBlock) -> bool:
        """HotStuff safety rule: the proposal's justification outranks
        our lock, or the proposal extends the locked block."""
        justify = block.justify
        if justify is None:
            return block.parent == self.genesis_id
        if justify.view > self.locked_qc.view:
            return True
        return self._extends(block, self.locked_qc.block_id)

    def _extends(self, block: BftBlock, ancestor_id: Hash) -> bool:
        cursor: Optional[BftBlock] = block
        while cursor is not None:
            if cursor.block_id == ancestor_id:
                return True
            cursor = self.blocks.get(cursor.parent)
        return False

    def _maybe_vote(self, block: BftBlock, phase: str) -> None:
        if block.view != self.current_view:
            return
        if self.byzantine_behavior == BYZ_WITHHOLD:
            if self.byz_rng is None or self.byz_rng.random() < 0.9:
                self.stats.votes_withheld += 1
                return
        double_voter = self.byzantine_behavior == BYZ_EQUIVOCATE
        key = (block.view, phase)
        if not double_voter:
            if key in self._voted:
                return
            if phase == PHASE_PREPARE and not self._safe_to_vote(block):
                return
        self._voted.add(key)
        vote = Vote(block_id=block.block_id, view=block.view, phase=phase,
                    voter=self.index)
        self.stats.votes_sent += 1
        leader_id = self.validator_ids[block.proposer]
        if leader_id == self.node_id:
            self._receive_vote(vote)
            return
        self.send_reliable(leader_id, Message(
            kind=MSG_BFT_VOTE, payload=vote, size_bytes=_VOTE_SIZE_BYTES,
            dedup_key=_digest(
                f"vote:{phase}:{block.view}:{self.index}".encode(),
                bytes(block.block_id)),
        ))

    def _receive_vote(self, vote: Vote) -> None:
        self.stats.votes_received += 1
        if vote.block_id not in self.blocks:
            return
        seen_key = (vote.view, vote.phase, vote.voter)
        first = self._vote_seen.get(seen_key)
        if first is None:
            self._vote_seen[seen_key] = vote.block_id
        elif first != vote.block_id:
            self.stats.double_votes_detected += 1
        qc_key = (vote.block_id, vote.phase)
        if qc_key in self._qc_done:
            return
        voters = self._votes.setdefault(qc_key, set())
        voters.add(vote.voter)
        if len(voters) < self.quorum:
            return
        self._qc_done.add(qc_key)
        qc = QuorumCert(block_id=vote.block_id, view=vote.view,
                        phase=vote.phase, voters=frozenset(voters))
        self.stats.qcs_formed += 1
        self._distribute_qc(qc)
        self._process_qc(qc)

    def _distribute_qc(self, qc: QuorumCert) -> None:
        message = Message(
            kind=MSG_BFT_QC, payload=qc, size_bytes=qc.size_bytes,
            dedup_key=_digest(qc.identity()),
        )
        if (self.byzantine_behavior == BYZ_EQUIVOCATE
                and qc.phase == PHASE_COMMIT):
            # The classical split-finality attack: show each half of the
            # roster a commit certificate for a different sibling.  Only
            # dangerous when f >= n/3 lets both certificates form.
            block = self.blocks.get(qc.block_id)
            marker = block.marker if block is not None else 0
            peers = [vid for vid in self.validator_ids
                     if vid != self.node_id]
            targets = set(peers[marker % 2:: 2]) | set(self.colluders)
            for peer_id in sorted(targets):
                if peer_id != self.node_id:
                    self.send_reliable(peer_id, message)
            return
        self.transport.publish(qc, message)

    # ------------------------------------------------------------------- QCs

    def _process_qc(self, qc: QuorumCert) -> None:
        block = self.blocks.get(qc.block_id)
        if block is None:
            pending = self._pending_qcs.setdefault(qc.block_id, [])
            if qc not in pending:
                pending.append(qc)
            return
        if qc.view > self.high_qc.view:
            self.high_qc = qc
        if qc.phase == PHASE_PREPARE:
            if qc.view > self.locked_qc.view:
                self.locked_qc = qc
            self._maybe_vote(block, PHASE_COMMIT)
        elif qc.phase == PHASE_COMMIT:
            self._commit(block)
            if qc.view >= self.current_view:
                self._enter_view(qc.view + 1)

    def _commit(self, block: BftBlock) -> None:
        chain: List[BftBlock] = []
        cursor: Optional[BftBlock] = block
        while cursor is not None and cursor.block_id not in self._committed_set:
            chain.append(cursor)
            cursor = self.blocks.get(cursor.parent)
        for blk in reversed(chain):
            self._committed_set.add(blk.block_id)
            self.committed.append(blk.block_id)
            self.stats.commits += 1
            self._apply_payments(blk)
        if chain:
            self._maybe_propose()

    def _apply_payments(self, block: BftBlock) -> None:
        now = self.network.simulator.now if self.network is not None else 0.0
        for payment in block.payments:
            self.pending.pop(payment.payment_id, None)
            if payment.payment_id in self.committed_payments:
                continue
            if self.balances.get(payment.sender, 0) >= payment.amount >= 0:
                self.balances[payment.sender] -= payment.amount
                self.balances[payment.recipient] = (
                    self.balances.get(payment.recipient, 0) + payment.amount)
                self.stats.payments_applied += 1
            else:
                self.stats.payments_rejected += 1
            self.committed_payments[payment.payment_id] = now

    # -------------------------------------------------------------- payments

    def submit_payment(self, payment: BftPayment) -> bool:
        """Client entry point: gossip a command to the roster."""
        if not self.online:
            return False
        if payment.payment_id in self.committed_payments:
            return False
        self.pending[payment.payment_id] = payment
        self.broadcast(Message(
            kind=MSG_BFT_TX, payload=payment,
            size_bytes=payment.size_bytes,
            dedup_key=payment.payment_id,
        ))
        self._maybe_propose()
        return True

    def _on_payment(self, payment: BftPayment) -> None:
        if payment.payment_id in self.committed_payments:
            return
        if payment.payment_id not in self.pending:
            self.pending[payment.payment_id] = payment
        self._maybe_propose()

    # ---------------------------------------------------------------- gossip

    def handle_message(self, sender_id: str, message: Message) -> None:
        kind = message.kind
        if kind == MSG_BFT_PROPOSAL:
            self.ingest_quietly(message.payload)
        elif kind == MSG_BFT_VOTE:
            self._receive_vote(message.payload)
        elif kind == MSG_BFT_QC:
            self._process_qc(message.payload)
        elif kind == MSG_BFT_NEW_VIEW:
            self._process_qc(message.payload.high_qc)
        elif kind == MSG_BFT_TX:
            self._on_payment(message.payload)

    def retains_artifact(self, artifact: object) -> bool:
        if isinstance(artifact, BftBlock):
            return artifact.block_id in self.blocks
        return True

    # --------------------------------------------------------------- queries

    def state_lines(self) -> List[str]:
        """Canonical digest material: committed order + balances."""
        lines = [f"committed:{b.hex}" for b in self.committed]
        lines.extend(f"balance:{account}:{amount}"
                     for account, amount in sorted(self.balances.items()))
        return lines
