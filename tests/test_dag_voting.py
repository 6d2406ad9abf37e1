"""Tests for repro.dag.voting (Open Representative Voting)."""

import pytest

from repro.common.errors import ValidationError
from repro.common.types import Hash
from repro.crypto.keys import KeyPair
from repro.dag.representatives import RepresentativeLedger
from repro.dag.voting import Election, ElectionManager, Vote


def make_vote(rep_keypair, block_hash, sequence=1):
    unsigned = Vote(
        representative=rep_keypair.address,
        block_hash=block_hash,
        sequence=sequence,
        public_key=rep_keypair.public_key,
    )
    return Vote(
        representative=unsigned.representative,
        block_hash=unsigned.block_hash,
        sequence=unsigned.sequence,
        public_key=unsigned.public_key,
        signature=rep_keypair.sign(unsigned.signed_payload()),
    )


@pytest.fixture
def weighted_world(rng):
    """Three reps with weights 50/30/20, all online."""
    reps = [KeyPair.generate(rng) for _ in range(3)]
    accounts = [KeyPair.generate(rng) for _ in range(3)]
    ledger = RepresentativeLedger()
    for account, rep, weight in zip(accounts, reps, (50, 30, 20)):
        ledger.set_account(account.address, weight, rep.address)
        ledger.set_online(rep.address)
    return ledger, reps


BLOCK_A = Hash(b"\xaa" * 32)
BLOCK_B = Hash(b"\xbb" * 32)
ACCOUNT = None  # filled per test


class TestVote:
    def test_signed_vote_verifies(self, rng):
        rep = KeyPair.generate(rng)
        assert make_vote(rep, BLOCK_A).verify()

    def test_unsigned_vote_fails(self, rng):
        rep = KeyPair.generate(rng)
        vote = Vote(rep.address, BLOCK_A, 1, rep.public_key)
        assert not vote.verify()

    def test_tampered_vote_fails(self, rng):
        rep = KeyPair.generate(rng)
        vote = make_vote(rep, BLOCK_A)
        from dataclasses import replace

        assert not replace(vote, block_hash=BLOCK_B).verify()


class TestElection:
    def test_weighted_tally(self, weighted_world, rng):
        ledger, reps = weighted_world
        account = KeyPair.generate(rng).address
        election = Election(root=(account, Hash.zero()))
        election.add_candidate(BLOCK_A)
        election.add_candidate(BLOCK_B)
        election.record(make_vote(reps[0], BLOCK_A))
        election.record(make_vote(reps[1], BLOCK_B))
        election.record(make_vote(reps[2], BLOCK_B))
        totals = election.tally(ledger)
        assert totals[BLOCK_A] == 50 and totals[BLOCK_B] == 50

    def test_quorum_decides_winner(self, weighted_world, rng):
        ledger, reps = weighted_world
        account = KeyPair.generate(rng).address
        election = Election(root=(account, Hash.zero()))
        election.add_candidate(BLOCK_A)
        election.add_candidate(BLOCK_B)
        election.record(make_vote(reps[0], BLOCK_A))  # 50 <= 50: no quorum
        assert election.try_conclude(ledger, 0.5) is None
        election.record(make_vote(reps[2], BLOCK_A))  # 70 > 50: quorum
        assert election.try_conclude(ledger, 0.5) == BLOCK_A

    def test_rep_can_switch_with_higher_sequence(self, weighted_world, rng):
        ledger, reps = weighted_world
        account = KeyPair.generate(rng).address
        election = Election(root=(account, Hash.zero()))
        election.add_candidate(BLOCK_A)
        election.add_candidate(BLOCK_B)
        election.record(make_vote(reps[0], BLOCK_A, sequence=1))
        election.record(make_vote(reps[0], BLOCK_B, sequence=2))
        assert election.tally(ledger)[BLOCK_B] == 50

    def test_stale_sequence_ignored(self, weighted_world, rng):
        ledger, reps = weighted_world
        account = KeyPair.generate(rng).address
        election = Election(root=(account, Hash.zero()))
        election.add_candidate(BLOCK_A)
        election.add_candidate(BLOCK_B)
        election.record(make_vote(reps[0], BLOCK_B, sequence=5))
        assert not election.record(make_vote(reps[0], BLOCK_A, sequence=4))
        assert election.tally(ledger)[BLOCK_B] == 50

    def test_vote_for_unknown_candidate_rejected(self, weighted_world, rng):
        ledger, reps = weighted_world
        account = KeyPair.generate(rng).address
        election = Election(root=(account, Hash.zero()))
        election.add_candidate(BLOCK_A)
        with pytest.raises(ValidationError):
            election.record(make_vote(reps[0], BLOCK_B))


class TestElectionManager:
    def test_conflict_resolution_by_weight(self, weighted_world, rng):
        """Section III-B: "the winning transaction is the one that gained
        the most votes with regards to the voters' weight"."""
        ledger, reps = weighted_world
        manager = ElectionManager(ledger, quorum_fraction=0.5)
        account = KeyPair.generate(rng).address
        root = Hash(b"\x01" * 32)
        manager.open_election(account, root, [BLOCK_A, BLOCK_B])
        assert manager.record_conflict_vote(account, root, make_vote(reps[1], BLOCK_B)) is None
        winner = manager.record_conflict_vote(account, root, make_vote(reps[0], BLOCK_B))
        assert winner == BLOCK_B  # 80 > 50% of 100
        assert manager.elections_concluded == 1
        # Later votes return the stored winner; the election concluded once.
        for vote in (make_vote(reps[2], BLOCK_A),
                     make_vote(reps[1], BLOCK_B, sequence=2)):
            assert manager.record_conflict_vote(account, root, vote) == BLOCK_B
            assert manager.elections_concluded == 1

    def test_election_reuse_and_extension(self, weighted_world, rng):
        ledger, reps = weighted_world
        manager = ElectionManager(ledger, 0.5)
        account = KeyPair.generate(rng).address
        root = Hash(b"\x01" * 32)
        e1 = manager.open_election(account, root, [BLOCK_A])
        e2 = manager.open_election(account, root, [BLOCK_B])
        assert e1 is e2
        assert e1.candidates == {BLOCK_A, BLOCK_B}
        assert manager.elections_started == 1

    def test_vote_without_election_rejected(self, weighted_world, rng):
        ledger, reps = weighted_world
        manager = ElectionManager(ledger, 0.5)
        with pytest.raises(ValidationError):
            manager.record_conflict_vote(
                KeyPair.generate(rng).address, Hash.zero(), make_vote(reps[0], BLOCK_A)
            )


class TestConfirmation:
    def test_quorum_confirms(self, weighted_world):
        """Section IV-B: confirmed at majority of online weight."""
        ledger, reps = weighted_world
        manager = ElectionManager(ledger, 0.5)
        assert not manager.record_observation_vote(make_vote(reps[0], BLOCK_A))  # 50
        assert manager.record_observation_vote(make_vote(reps[1], BLOCK_A))  # 80 > 50
        assert manager.is_confirmed(BLOCK_A)
        assert manager.confirmed_count() == 1

    def test_confidence_fraction(self, weighted_world):
        ledger, reps = weighted_world
        manager = ElectionManager(ledger, 0.5)
        manager.record_observation_vote(make_vote(reps[2], BLOCK_A))
        assert manager.confirmation_confidence(BLOCK_A) == pytest.approx(0.2)

    def test_duplicate_votes_not_double_counted(self, weighted_world):
        ledger, reps = weighted_world
        manager = ElectionManager(ledger, 0.5)
        manager.record_observation_vote(make_vote(reps[0], BLOCK_A, sequence=1))
        manager.record_observation_vote(make_vote(reps[0], BLOCK_A, sequence=1))
        assert manager.confirmation_weight(BLOCK_A) == 50

    def test_confirmed_tally_keeps_only_its_voters(self, weighted_world):
        """Once confirmed, a block's tally shrinks to a tuple of voters:
        the weight is still the voters' current weight, and a later vote
        neither counts nor touches it."""
        ledger, reps = weighted_world
        manager = ElectionManager(ledger, 0.5)
        manager.record_observation_vote(make_vote(reps[1], BLOCK_A))
        assert isinstance(manager._confirmation_votes[BLOCK_A], dict)
        assert manager.record_observation_vote(make_vote(reps[0], BLOCK_A))
        tally = manager._confirmation_votes[BLOCK_A]
        assert tally == (reps[1].address, reps[0].address)
        assert manager.confirmation_weight(BLOCK_A) == 80
        assert manager.confirmation_confidence(BLOCK_A) == pytest.approx(0.8)
        assert not manager.record_observation_vote(make_vote(reps[2], BLOCK_A, 2))
        assert manager._confirmation_votes[BLOCK_A] is tally
        assert manager.confirmation_weight(BLOCK_A) == 80

    def test_offline_weight_excluded_from_quorum_base(self, weighted_world):
        ledger, reps = weighted_world
        ledger.set_online(reps[0].address, online=False)  # 50 offline
        manager = ElectionManager(ledger, 0.5)
        # Online base is 50; rep1's 30 > 25 confirms alone.
        assert manager.record_observation_vote(make_vote(reps[1], BLOCK_A))
