"""Open Representative Voting (Sections III-B and IV-B).

"Representatives vote in order to resolve conflicts.  Their votes are
weighted ... the winning transaction is the one that gained the most
votes with regards to the voters' weight."  Beyond conflicts,
"representatives vote automatically on blocks they have not seen before",
so consensus information piggybacks on normal propagation — a block is
*confirmed* once votes for it exceed the quorum share of online weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.common.memo import cached
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.common.errors import ValidationError
from repro.common.types import Address, Hash
from repro.crypto.keys import verify_signature
from repro.dag.representatives import RepresentativeLedger


@dataclass(frozen=True)
class Vote:
    """A representative's signed endorsement of one block.

    ``sequence`` orders a representative's votes; a later vote for a
    competing block in the same election replaces the earlier one (reps
    may switch to the emerging winner).
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


@dataclass
class Election:
    """Tally for one conflict set: blocks competing for one predecessor."""

    root: Tuple[Address, Hash]  # (account, contested predecessor)
    candidates: Set[Hash] = field(default_factory=set)
    #: representative -> (block voted for, vote sequence)
    votes: Dict[Address, Tuple[Hash, int]] = field(default_factory=dict)
    winner: Optional[Hash] = None

    def add_candidate(self, block_hash: Hash) -> None:
        self.candidates.add(block_hash)

    def record(self, vote: Vote) -> bool:
        """Count a vote; returns False for stale/duplicate sequences."""
        if vote.block_hash not in self.candidates:
            raise ValidationError(
                f"vote for {vote.block_hash.short()} is not in this election"
            )
        current = self.votes.get(vote.representative)
        if current is not None and current[1] >= vote.sequence:
            return False
        self.votes[vote.representative] = (vote.block_hash, vote.sequence)
        return True

    def tally(self, reps: RepresentativeLedger) -> Dict[Hash, int]:
        """Weighted vote totals per candidate."""
        totals: Dict[Hash, int] = {h: 0 for h in self.candidates}
        for rep, (block_hash, _seq) in self.votes.items():
            totals[block_hash] += reps.weight(rep)
        return totals

    def try_conclude(
        self, reps: RepresentativeLedger, quorum_fraction: float
    ) -> Optional[Hash]:
        """Declare a winner once one candidate holds a quorum of online
        weight; returns the winning hash or None."""
        if self.winner is not None:
            return self.winner
        online = reps.online_weight()
        if online <= 0:
            return None
        threshold = online * quorum_fraction
        totals = self.tally(reps)
        best_hash, best_weight = max(totals.items(), key=lambda kv: kv[1])
        if best_weight > threshold:
            self.winner = best_hash
        return self.winner


class ElectionManager:
    """All live elections plus per-block confirmation tallies.

    Confirmation (Section IV-B): every block — conflicting or not —
    accumulates observation votes; once the voted weight passes quorum the
    block is *confirmed*.  "For a transaction with no issues, no [extra]
    voting overhead is required": the same votes that propagate the block
    double as its confirmation, which the caller models by having
    representatives vote on first sight.
    """

    def __init__(self, reps: RepresentativeLedger, quorum_fraction: float) -> None:
        self.reps = reps
        self.quorum_fraction = quorum_fraction
        self._elections: Dict[Tuple[Address, Hash], Election] = {}
        self._confirmation_votes: Dict[
            Hash, Union[Dict[Address, int], Tuple[Address, ...]]] = {}
        self._confirmed: Set[Hash] = set()
        self.elections_started = 0
        self.elections_concluded = 0

    # -------------------------------------------------------------- conflict

    def open_election(
        self, account: Address, contested_previous: Hash, candidates: List[Hash]
    ) -> Election:
        """Start (or extend) the election for one contested predecessor."""
        key = (account, contested_previous)
        election = self._elections.get(key)
        if election is None:
            election = Election(root=key)
            self._elections[key] = election
            self.elections_started += 1
        for candidate in candidates:
            election.add_candidate(candidate)
        return election

    def election_for(self, account: Address, contested_previous: Hash) -> Optional[Election]:
        return self._elections.get((account, contested_previous))

    def record_conflict_vote(
        self, account: Address, contested_previous: Hash, vote: Vote
    ) -> Optional[Hash]:
        """Route a vote to its election; returns the winner if decided."""
        election = self._elections.get((account, contested_previous))
        if election is None:
            raise ValidationError("no election for this conflict")
        election.record(vote)
        winner = election.try_conclude(self.reps, self.quorum_fraction)
        if winner is not None and election.winner == winner:
            self.elections_concluded += 1
        return winner

    # ---------------------------------------------------------- confirmation

    def record_observation_vote(self, vote: Vote) -> bool:
        """Count a first-sight vote toward a block's confirmation;
        returns True when the block just became confirmed."""
        block_hash = vote.block_hash
        if block_hash in self._confirmed:
            return False
        per_block = self._confirmation_votes.get(block_hash)
        if per_block is None:
            per_block = self._confirmation_votes[block_hash] = {}
        prev_seq = per_block.get(vote.representative)
        if prev_seq is not None and prev_seq >= vote.sequence:
            return False
        per_block[vote.representative] = vote.sequence
        if self.confirmation_weight(block_hash) > (
            self.reps.online_weight() * self.quorum_fraction
        ):
            self._confirmed.add(block_hash)
            # Later votes for a confirmed block return above, so only
            # the voters are read again: keep them as a tuple.
            self._confirmation_votes[block_hash] = tuple(per_block)
            return True
        return False

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
