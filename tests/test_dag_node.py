"""Integration tests for repro.dag.node over the simulated network."""

from dataclasses import replace

import pytest

from repro.common.errors import GenesisMismatchError, ValidationError
from repro.crypto.keys import KeyPair, clear_sigcache, sigcache_counters
from repro.net.link import LinkParams
from repro.dag.blocks import make_send
from repro.dag.bootstrap import build_nano_testbed, fund_accounts
from repro.dag.node import NanoNode
from repro.dag.params import NanoParams


LINK = LinkParams(latency_s=0.05, jitter_s=0.02)


@pytest.fixture
def testbed():
    tb = build_nano_testbed(
        node_count=6, representative_count=3, seed=11, link_params=LINK
    )
    return tb


@pytest.fixture
def funded(testbed):
    users = fund_accounts(testbed, 4, 100_000, settle_time=2.0)
    testbed.simulator.run(until=testbed.simulator.now + 5)
    return testbed, users


class TestReplication:
    def test_transfer_converges_on_all_replicas(self, funded):
        tb, users = funded
        u0, u1 = users[0], users[1]
        tb.node_for(u0.address).send_payment(u0.address, u1.address, 4_000)
        tb.simulator.run(until=tb.simulator.now + 10)
        assert {n.balance(u1.address) for n in tb.nodes} == {104_000}
        assert {n.balance(u0.address) for n in tb.nodes} == {96_000}
        assert len({n.lattice.block_count() for n in tb.nodes}) == 1

    def test_user_orders_own_transactions(self, funded):
        """Section VI-B: account owner orders its chain — rapid back-to-
        back sends chain correctly."""
        tb, users = funded
        u0, u1 = users[0], users[1]
        wallet = tb.node_for(u0.address)
        for amount in (100, 200, 300):
            wallet.send_payment(u0.address, u1.address, amount)
        tb.simulator.run(until=tb.simulator.now + 10)
        assert {n.balance(u1.address) for n in tb.nodes} == {100_600}
        chain = wallet.lattice.chain(u0.address)
        assert chain.height == 4  # open + 3 sends

    def test_send_to_unopened_account_creates_open(self, funded, rng):
        tb, users = funded
        newcomer = KeyPair.generate(rng)
        tb.nodes[2].add_account(newcomer)
        tb.wallets[newcomer.address] = tb.nodes[2]
        u0 = users[0]
        tb.node_for(u0.address).send_payment(u0.address, newcomer.address, 500)
        tb.simulator.run(until=tb.simulator.now + 10)
        assert {n.balance(newcomer.address) for n in tb.nodes} == {500}

    def test_offline_receiver_leaves_send_pending(self, funded):
        """Section II-B: "a node has to be online in order to receive"."""
        tb, users = funded
        u0, u1 = users[0], users[1]
        receiver_node = tb.node_for(u1.address)
        receiver_node.set_online(False)
        tb.node_for(u0.address).send_payment(u0.address, u1.address, 999)
        tb.simulator.run(until=tb.simulator.now + 10)
        online_pending = [
            n.lattice.pending_count() for n in tb.nodes if n is not receiver_node
        ]
        assert all(count == 1 for count in online_pending)
        # Receiver comes back online, bootstraps the missed blocks, settles.
        receiver_node.set_online(True)
        adopted = receiver_node.bootstrap_from(tb.nodes[0])
        assert adopted >= 1
        receiver_node.receive_pending(u1.address)
        tb.simulator.run(until=tb.simulator.now + 10)
        live_balances = {
            n.balance(u1.address) for n in tb.nodes if n is not receiver_node
        }
        assert live_balances == {100_999}


    def test_bootstrap_without_genesis_is_refused(self, funded):
        """A fresh node that never ran ``install_genesis`` used to park
        the peer's whole ledger forever and report "0 adopted"."""
        tb, users = funded
        peer = tb.nodes[0]
        joiner = NanoNode("joiner", peer.params)
        with pytest.raises(GenesisMismatchError, match="no genesis"):
            joiner.bootstrap_from(peer)
        assert len(joiner.intake) == 0
        assert joiner.lattice.block_count() == 0
        # With the genesis installed the same call replays everything.
        genesis = peer.lattice.chain(peer.lattice.genesis_account).blocks[0]
        joiner.lattice.install_genesis(genesis)
        assert joiner.bootstrap_from(peer) == peer.lattice.block_count() - 1
        assert joiner.bootstrap_from(peer) == 0


class TestStateSync:
    def test_join_from_pruned_peer(self, funded):
        """Checkpoint join: a pruned peer only has chain heads, yet a
        fresh replica reaches the same balances and supply from them."""
        from repro.storage.dag_pruning import prune_lattice

        tb, users = funded
        u0, u1 = users[0], users[1]
        tb.node_for(u0.address).send_payment(u0.address, u1.address, 4_000)
        tb.simulator.run(until=tb.simulator.now + 10)
        peer = tb.nodes[0]
        prune_lattice(peer.lattice)
        joiner = NanoNode("joiner", peer.params)
        chains = [c for c in peer.lattice.chains() if c.blocks]
        installed = joiner.state_sync_from(peer)
        assert installed == len(chains)
        assert joiner.balance(u1.address) == peer.balance(u1.address)
        assert joiner.lattice.total_supply() == peer.lattice.total_supply()
        # One head per account was enough — no history replay.
        assert joiner.lattice.block_count() == len(chains)
        for node in (joiner, peer):
            assert node.transport.counters.state_syncs == 1
            assert node.transport.counters.state_sync_bytes > 0

    def test_pending_survives_checkpoint_join(self, funded):
        tb, users = funded
        u0, u1 = users[0], users[1]
        receiver = tb.node_for(u1.address)
        receiver.set_online(False)
        tb.node_for(u0.address).send_payment(u0.address, u1.address, 999)
        tb.simulator.run(until=tb.simulator.now + 10)
        peer = next(n for n in tb.nodes if n is not receiver)
        assert peer.lattice.pending_count() == 1
        joiner = NanoNode("joiner", peer.params)
        joiner.state_sync_from(peer)
        assert joiner.lattice.pending_count() == 1

    def test_foreign_genesis_is_refused(self):
        """A joiner holding another ledger's genesis used to install the
        peer's chains next to its own and double the supply."""
        ours, theirs = (
            build_nano_testbed(node_count=2, representative_count=1, seed=seed,
                               link_params=LINK).nodes[0]
            for seed in (1, 2))
        assert ours.lattice.genesis_account != theirs.lattice.genesis_account
        joiner = NanoNode("joiner", ours.params)
        joiner.lattice.install_genesis(
            ours.lattice.chain(ours.lattice.genesis_account).blocks[0])
        with pytest.raises(GenesisMismatchError, match="genesis"):
            joiner.state_sync_from(theirs)
        assert joiner.lattice.total_supply() == ours.lattice.total_supply()
        assert joiner.lattice.block_count() == 1
        assert joiner.transport.counters.state_syncs == 0

    def test_forged_head_installs_nothing(self, funded):
        """A forged head used to leave every head before it appended and
        cemented: 4 of 5 chains, supply short by the forged chain's."""
        tb, _users = funded
        peer = tb.nodes[0]
        heads = [chain.head for chain in peer.lattice.chains() if chain.blocks]
        forged = replace(heads[-1], signature=bytes(64))
        joiner = NanoNode("joiner", peer.params)
        with pytest.raises(ValidationError, match="invalid signature"):
            joiner.lattice.install_frontier(heads[:-1] + [forged], [])
        assert joiner.lattice.account_count() == 0
        assert joiner.lattice.block_count() == 0
        assert joiner.lattice.total_supply() == 0
        assert joiner.lattice.install_frontier(heads, []) == len(heads)


class TestColdJoinChecksEachSignatureOnce:
    """A cold replica verifies each adopted block's signature exactly
    once: every check a sigcache miss, none a hit."""

    def test_bootstrap(self, funded):
        tb, _users = funded
        peer = tb.nodes[0]
        joiner = NanoNode("joiner", peer.params)
        joiner.lattice.install_genesis(
            peer.lattice.chain(peer.lattice.genesis_account).blocks[0])
        clear_sigcache()
        adopted = joiner.bootstrap_from(peer)
        assert adopted == peer.lattice.block_count() - 1
        counters = sigcache_counters()
        assert counters["sigcache.hits"] == 0
        assert counters["sigcache.misses"] == adopted

    def test_state_sync(self, funded):
        tb, _users = funded
        peer = tb.nodes[0]
        joiner = NanoNode("joiner", peer.params)
        clear_sigcache()
        installed = joiner.state_sync_from(peer)
        assert installed == peer.lattice.account_count()
        counters = sigcache_counters()
        assert counters["sigcache.hits"] == 0
        assert counters["sigcache.misses"] == installed


class TestConfirmation:
    def test_votes_confirm_and_cement(self, funded):
        tb, users = funded
        u0, u1 = users[0], users[1]
        block = tb.node_for(u0.address).send_payment(u0.address, u1.address, 10)
        tb.simulator.run(until=tb.simulator.now + 10)
        for node in tb.nodes:
            assert node.is_confirmed(block.block_hash)
            assert node.confirmation_confidence(block.block_hash) > 0.5
        assert tb.nodes[0].lattice.is_cemented(block.block_hash)

    def test_confirmation_latency_is_subsecond_here(self, funded):
        """DAG confirmation = vote propagation, not block intervals."""
        tb, users = funded
        u0, u1 = users[0], users[1]
        start = tb.simulator.now
        block = tb.node_for(u0.address).send_payment(u0.address, u1.address, 10)
        tb.simulator.run(until=start + 10)
        confirmed_at = tb.nodes[0].confirmation_times[block.block_hash]
        assert confirmed_at - start < 1.0

    def test_no_voting_overhead_without_reps(self):
        """A rep-less node relays but never votes (Section III-B)."""
        tb = build_nano_testbed(
            node_count=4, representative_count=2, seed=3, link_params=LINK
        )
        non_rep = tb.nodes[3]
        users = fund_accounts(tb, 2, 1_000, settle_time=2.0)
        tb.simulator.run(until=tb.simulator.now + 5)
        assert non_rep.stats.votes_cast == 0
        assert not non_rep.is_representative


class TestDoubleSpendResolution:
    def test_conflicting_sends_resolve_to_one_winner(self, funded):
        """Section III-B: representatives resolve the fork; exactly one
        of two conflicting sends survives on every replica."""
        tb, users = funded
        u0, u1, u2 = users[0], users[1], users[2]
        wallet = tb.node_for(u0.address)
        head = wallet.lattice.chain(u0.address).head
        honest = wallet.send_payment(u0.address, u1.address, 50_000)
        # The attacker signs a conflicting send from the same head and
        # injects it at a distant node.
        u0_key = wallet.local_accounts[u0.address]
        conflicting = make_send(
            u0_key, head, u2.address, 50_000, work_difficulty=1
        )
        far_node = tb.nodes[-1]
        far_node.deliver(
            "attacker",
            __import__("repro.net.message", fromlist=["Message"]).Message(
                kind="nano_block",
                payload=conflicting,
                size_bytes=conflicting.size_bytes,
                dedup_key=conflicting.block_hash,
            ),
        )
        tb.simulator.run(until=tb.simulator.now + 15)
        # All replicas agree on a single successor of `head`.
        successors = set()
        for node in tb.nodes:
            chain = node.lattice.chain(u0.address)
            for i, blk in enumerate(chain.blocks):
                if blk.block_hash == head.block_hash and i + 1 < len(chain.blocks):
                    successors.add(chain.blocks[i + 1].block_hash)
        assert len(successors) == 1
        assert sum(n.stats.forks_seen for n in tb.nodes) >= 1

    def test_total_supply_preserved_after_conflict(self, funded):
        tb, users = funded
        supply_before = tb.nodes[0].lattice.total_supply()
        self_test = TestDoubleSpendResolution()
        # (reuse the scenario above by sending conflicting payments)
        u0, u1, u2 = users[0], users[1], users[2]
        wallet = tb.node_for(u0.address)
        head = wallet.lattice.chain(u0.address).head
        wallet.send_payment(u0.address, u1.address, 1_000)
        u0_key = wallet.local_accounts[u0.address]
        conflicting = make_send(u0_key, head, u2.address, 1_000, work_difficulty=1)
        from repro.net.message import Message

        tb.nodes[-1].deliver(
            "attacker",
            Message(
                kind="nano_block",
                payload=conflicting,
                size_bytes=conflicting.size_bytes,
                dedup_key=conflicting.block_hash,
            ),
        )
        tb.simulator.run(until=tb.simulator.now + 15)
        for node in tb.nodes:
            assert node.lattice.total_supply() == supply_before


class TestSpamThrottle:
    def test_work_required_for_blocks(self, rng):
        """Section III-B: blocks without valid anti-spam work are dropped."""
        params = NanoParams(work_difficulty=2**14)
        tb = build_nano_testbed(
            node_count=3, representative_count=2, seed=5,
            params=params, link_params=LINK,
        )
        cheap = make_send(
            tb.genesis_key,
            tb.genesis_block,
            KeyPair.generate(rng).address,
            10,
            work_difficulty=1,  # far below required difficulty
        )
        with pytest.raises(ValidationError):
            tb.nodes[0].ingest(cheap)


class TestOfflineRepublish:
    def test_block_created_offline_republishes_on_reconnect(self, funded):
        """A send issued while the wallet node is offline applies locally
        but broadcast() is a silent no-op — without a republish on
        reconnect the rest of the network can never learn the block and
        the account's heads diverge permanently (found by `repro fuzz`,
        adversarial profile)."""
        tb, users = funded
        u0, u1 = users[0], users[1]
        wallet = tb.node_for(u0.address)
        wallet.set_online(False)
        wallet.send_payment(u0.address, u1.address, 2_500)
        tb.simulator.run(until=tb.simulator.now + 10)
        others = [n for n in tb.nodes if n is not wallet]
        assert {n.balance(u0.address) for n in others} == {100_000}
        wallet.set_online(True)
        tb.simulator.run(until=tb.simulator.now + 10)
        assert {n.balance(u0.address) for n in tb.nodes} == {97_500}


class TestElectionAdoptionRetriesUnchecked:
    def test_settle_election_drains_parked_dependents(self, funded):
        """A receive gossiped while this replica still held the losing
        fork branch parks in the unchecked buffer keyed on the winning
        send.  Settling the election must route the winner through the
        normal intake path so the parked receive is retried — adopting
        via lattice.process directly left it parked forever (found by
        `repro fuzz`, conflict profile)."""
        from repro.dag.blocks import make_receive

        tb, users = funded
        u0, u1, u2 = users[0], users[1], users[2]
        wallet = tb.node_for(u0.address)
        u0_key = wallet.local_accounts[u0.address]
        u1_key = tb.node_for(u1.address).local_accounts[u1.address]
        head = wallet.lattice.chain(u0.address).head
        winner = make_send(u0_key, head, u1.address, 500, work_difficulty=1)
        loser = make_send(u0_key, head, u2.address, 500, work_difficulty=1)

        replica = next(n for n in tb.nodes if u0.address not in n.local_accounts)
        replica.set_online(False)  # isolate: drive its ledger directly
        replica.ingest(loser)
        receive = make_receive(
            u1_key, replica.lattice.chain(u1.address).head,
            winner.block_hash, 500, work_difficulty=1,
        )
        replica.ingest(receive)  # source missing -> parked
        assert receive.block_hash not in replica.lattice

        replica._conflict_buffer[winner.block_hash] = winner
        replica._settle_election(u0.address, head.block_hash, winner.block_hash)
        assert winner.block_hash in replica.lattice
        assert receive.block_hash in replica.lattice
        assert replica.balance(u1.address) == 100_500


class TestBootstrapPastIntakeCapacity:
    def test_one_pass_joins_a_peer_larger_than_the_intake_buffer(self):
        """Blocks served in the peer's chain order parked behind sends
        that came later in that order, overflowed the intake buffer and
        were evicted, so no number of passes converged.  Served in
        dependency order, one pass adopts everything and parks nothing."""
        from repro.core.deploy import build_deployment
        from repro.protocol import DEFAULT_INTAKE_CAPACITY
        from repro.workloads.open_loop import OpenLoopInjector

        deployment = build_deployment("dag", node_count=2,
                                      representative_count=1, seed=1)
        deployment.setup(200, 10**9)
        OpenLoopInjector.from_sim_stream(
            deployment.ledger, accounts=200, rate_tps=40.0,
            duration_s=60.0).start()
        deployment.ledger.advance(70.0)
        peer = deployment.nodes[0]
        assert peer.lattice.block_count() > DEFAULT_INTAKE_CAPACITY

        joiner = NanoNode("joiner", peer.params)
        joiner.lattice.install_genesis(
            peer.lattice.chain(peer.lattice.genesis_account).blocks[0])
        assert joiner.bootstrap_from(peer) == peer.lattice.block_count() - 1
        counters = joiner.layer_counters()
        assert counters["intake.parked"] == 0
        assert counters["intake.evicted"] == 0
        assert len(joiner.intake) == 0
        assert ({c.account: c.head.block_hash for c in joiner.lattice.chains()}
                == {c.account: c.head.block_hash for c in peer.lattice.chains()})
