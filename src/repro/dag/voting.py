"""Open Representative Voting (Sections III-B and IV-B).

"Representatives vote in order to resolve conflicts.  Their votes are
weighted ... the winning transaction is the one that gained the most
votes with regards to the voters' weight."  Beyond conflicts,
"representatives vote automatically on blocks they have not seen before",
so consensus information piggybacks on normal propagation — a block is
*confirmed* once votes for it exceed the quorum share of online weight.

Both are one mechanism here: one tally of votes by block hash.  A
conflict adds one rule to it, not a second tally — among the blocks that
claim one predecessor (a *contested root*) a representative backs one at
a time, so the first to pass quorum is the root's winner and the only
one that can be confirmed.  Nothing is confirmed while no weight is
online.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.common.errors import ValidationError
from repro.common.memo import cached
from repro.common.types import Address, Hash
from repro.crypto.keys import verify_signature
from repro.dag.representatives import RepresentativeLedger


@dataclass(frozen=True)
class Vote:
    """A representative's signed endorsement of one block.

    ``sequence`` orders a representative's votes; a later vote for a
    competing block of the same contested root replaces the earlier one
    (reps may switch to the emerging winner).
    """

    representative: Address
    block_hash: Hash
    sequence: int
    public_key: bytes = b""
    signature: bytes = b""

    @cached
    def _payload(self) -> bytes:
        # Votes are immutable and verified by every replica that hears
        # them; build the signed body once per object.
        return bytes(self.representative) + bytes(self.block_hash) + self.sequence.to_bytes(
            8, "big"
        )

    def signed_payload(self) -> bytes:
        return self._payload

    def verify(self) -> bool:
        if not self.signature:
            return False
        return verify_signature(self.public_key, self._payload, self.signature)

    @property
    def size_bytes(self) -> int:
        return len(self.signed_payload()) + 64 + 32


class ElectionManager:
    """One tally of representative votes, keyed by block hash.

    Confirmation (Section IV-B): every block — conflicting or not —
    accumulates votes; once the voted weight passes quorum of online
    weight the block is *confirmed*.  "For a transaction with no issues,
    no [extra] voting overhead is required": the same votes that
    propagate the block double as its confirmation, which the caller
    models by having representatives vote on first sight.

    A conflict is a *contested root*: blocks claiming one (account,
    predecessor), learned through :meth:`open_election` when a fork is
    seen.  A representative backs one candidate per contested root — its
    higher-sequence vote withdraws its vote for another — and once one
    candidate is confirmed no other in the root can be.
    """

    def __init__(self, reps: RepresentativeLedger, quorum_fraction: float) -> None:
        self.reps = reps
        self.quorum_fraction = quorum_fraction
        self._confirmation_votes: Dict[
            Hash, Union[Dict[Address, int], Tuple[Address, ...]]] = {}
        self._confirmed: Set[Hash] = set()
        #: contested root -> its candidates, in the order they were seen
        self._candidates: Dict[Tuple[Address, Hash], List[Hash]] = {}
        #: candidate -> its contested root (empty until a fork is seen)
        self._root_of: Dict[Hash, Tuple[Address, Hash]] = {}
        #: contested root -> its confirmed candidate
        self._winners: Dict[Tuple[Address, Hash], Hash] = {}
        self.elections_started = 0
        self.elections_concluded = 0

    # -------------------------------------------------------------- conflict

    def open_election(
        self, account: Address, contested_previous: Hash, candidates: List[Hash]
    ) -> None:
        """Mark one predecessor contested (or add candidates to it).

        Votes already tallied for the candidates stay; a representative
        that voted for several keeps only its highest-sequence vote."""
        root = (account, contested_previous)
        known = self._candidates.get(root)
        if known is None:
            known = self._candidates[root] = []
            self.elections_started += 1
        for candidate in candidates:
            if candidate not in known:
                known.append(candidate)
                self._root_of[candidate] = root
                if candidate in self._confirmed and root not in self._winners:
                    self._winners[root] = candidate
                    self.elections_concluded += 1
        backed: Dict[Address, Tuple[int, Hash]] = {}
        for candidate in known:
            tally = self._confirmation_votes.get(candidate)
            if not isinstance(tally, dict):
                continue  # no votes yet, or confirmed (final)
            for rep, sequence in list(tally.items()):
                other = backed.get(rep)
                if other is None:
                    backed[rep] = (sequence, candidate)
                elif sequence > other[0]:
                    del self._confirmation_votes[other[1]][rep]
                    backed[rep] = (sequence, candidate)
                else:
                    del tally[rep]

    def record_conflict_vote(
        self, account: Address, contested_previous: Hash, vote: Vote
    ) -> Optional[Hash]:
        """Count a vote for a candidate of a named contested root;
        returns the root's confirmed candidate, if any."""
        root = (account, contested_previous)
        candidates = self._candidates.get(root)
        if candidates is None:
            raise ValidationError("no election for this conflict")
        if vote.block_hash not in candidates:
            raise ValidationError(
                f"vote for {vote.block_hash.short()} is not in this election")
        self.record_observation_vote(vote)
        return self._winners.get(root)

    # ---------------------------------------------------------- confirmation

    def record_observation_vote(self, vote: Vote) -> bool:
        """Count a vote toward a block's confirmation; returns True when
        the block just became confirmed."""
        block_hash = vote.block_hash
        if block_hash in self._confirmed:
            return False
        root = self._root_of.get(block_hash)
        if root is not None and not self._switch_backing(root, vote):
            return False
        per_block = self._confirmation_votes.get(block_hash)
        if per_block is None:
            per_block = self._confirmation_votes[block_hash] = {}
        prev_seq = per_block.get(vote.representative)
        if prev_seq is not None and prev_seq >= vote.sequence:
            return False
        per_block[vote.representative] = vote.sequence
        online = self.reps.online_weight()
        if online <= 0 or self.confirmation_weight(block_hash) <= (
            online * self.quorum_fraction
        ):
            return False
        self._confirmed.add(block_hash)
        # Later votes for a confirmed block return above, so only the
        # voters are read again: keep them as a tuple.
        self._confirmation_votes[block_hash] = tuple(per_block)
        if root is not None:
            self._winners[root] = block_hash
            self.elections_concluded += 1
        return True

    def _switch_backing(self, root: Tuple[Address, Hash], vote: Vote) -> bool:
        """Move the voter's backing in a contested root to this vote's
        candidate: False when the root is decided or the voter backs
        another candidate at an equal or higher sequence."""
        if root in self._winners:
            return False
        rep = vote.representative
        for candidate in self._candidates[root]:
            if candidate == vote.block_hash:
                continue
            tally = self._confirmation_votes.get(candidate)
            sequence = tally.get(rep) if tally else None
            if sequence is not None:
                if sequence >= vote.sequence:
                    return False
                del tally[rep]  # a voter backs one candidate at a time
        return True

    def confirmation_weight(self, block_hash: Hash) -> int:
        """Current weight of the representatives that voted for the
        block (a dict of their sequences, or once confirmed a tuple)."""
        per_block = self._confirmation_votes.get(block_hash, ())
        return sum(self.reps.weight(rep) for rep in per_block)

    def confirmation_confidence(self, block_hash: Hash) -> float:
        """Voted weight as a fraction of online weight — the DAG analogue
        of blockchain's depth-based confidence (Section IV)."""
        online = self.reps.online_weight()
        if online <= 0:
            return 0.0
        return self.confirmation_weight(block_hash) / online

    def is_confirmed(self, block_hash: Hash) -> bool:
        return block_hash in self._confirmed

    def confirmed_count(self) -> int:
        return len(self._confirmed)
