"""Integration tests for repro.blockchain.node over the simulated network."""

from dataclasses import replace

import pytest

from repro.common.errors import ValidationError
from repro.common.types import Address, Hash
from repro.crypto.keys import KeyPair
from repro.crypto.pow import MAX_TARGET
from repro.net.link import FAST_LINK, LinkParams
from repro.net.message import Message
from repro.net.network import Network
from repro.net.topology import complete_topology
from repro.sim.simulator import Simulator
from repro.blockchain.block import (
    Block,
    assemble_block,
    build_genesis_with_allocations,
)
from repro.blockchain.node import MSG_TX, BlockchainNode, PosSlotDriver
from repro.blockchain.params import BITCOIN, ETHEREUM, ETHEREUM_POS
from repro.blockchain.pos import ValidatorSet
from repro.blockchain.state import AccountState, contract_address
from repro.blockchain.transaction import (
    build_transaction,
    make_coinbase,
    sign_account_transaction,
)
from repro.blockchain.vm import counter_contract


FAST_BITCOIN = replace(BITCOIN, target_block_interval_s=10.0, confirmation_depth=3)
FAST_ETHEREUM = replace(ETHEREUM, target_block_interval_s=5.0, confirmation_depth=3)


def build_pow_network(params, accounts, node_count=4, seed=0, link=FAST_LINK):
    rng_keys = [KeyPair.from_seed(bytes([i]) * 32) for i in range(accounts)]
    allocations = {kp.address: 1_000_000 for kp in rng_keys}
    genesis = build_genesis_with_allocations(allocations)
    sim = Simulator(seed=seed)
    net = Network(sim)
    if params.uses_gas:
        factory = lambda nid: BlockchainNode(  # noqa: E731
            nid, params, genesis, genesis_allocations=allocations
        )
    else:
        factory = lambda nid: BlockchainNode(nid, params, genesis)  # noqa: E731
    nodes = complete_topology(net, node_count, factory, link)
    for i, node in enumerate(nodes):
        miner_key = KeyPair.from_seed(bytes([100 + i]) * 32)
        node.start_pow_mining(1.0 / node_count, miner_key.address)
    return sim, net, list(nodes), rng_keys


class TestUtxoNetwork:
    def test_blocks_propagate_and_converge(self):
        sim, net, nodes, keys = build_pow_network(FAST_BITCOIN, accounts=2)
        sim.run(until=600)
        heads = {n.chain.head.block_id for n in nodes}
        assert len(heads) == 1
        assert nodes[0].chain.height > 30  # ~60 expected at 10s interval

    def test_transaction_reaches_confirmation(self):
        sim, net, nodes, keys = build_pow_network(FAST_BITCOIN, accounts=2)
        alice, bob = keys
        genesis_cb = nodes[0].chain.genesis.transactions[0]
        spendable = nodes[0].utxo.spendable(alice.address)
        tx = build_transaction(alice, spendable, bob.address, 500, fee=10)
        nodes[0].submit_transaction(tx)
        sim.run(until=600)
        assert all(n.balance(bob.address) == 1_000_500 for n in nodes)
        assert nodes[0].is_confirmed(tx.txid)
        assert nodes[0].confirmations(tx.txid) >= FAST_BITCOIN.confirmation_depth

    def test_fees_flow_to_miner(self):
        sim, net, nodes, keys = build_pow_network(FAST_BITCOIN, accounts=2)
        alice, bob = keys
        tx = build_transaction(
            alice, nodes[0].utxo.spendable(alice.address), bob.address, 500, fee=10
        )
        nodes[0].submit_transaction(tx)
        sim.run(until=600)
        # Total supply = genesis + rewards*height + (fee moved, not burned).
        total = nodes[0].utxo.total_value()
        expected = 2_000_000 + FAST_BITCOIN.block_reward * nodes[0].chain.height
        assert total == expected

    def test_invalid_transaction_not_admitted(self):
        sim, net, nodes, keys = build_pow_network(FAST_BITCOIN, accounts=2)
        alice, bob = keys
        tx = build_transaction(
            alice, nodes[0].utxo.spendable(alice.address), bob.address, 500
        )
        from repro.blockchain.transaction import Transaction, TxInput

        mallory = KeyPair.from_seed(bytes([200]) * 32)
        forged = Transaction(
            inputs=tuple(
                TxInput(i.prev_txid, i.prev_index, mallory.public_key, i.signature)
                for i in tx.inputs
            ),
            outputs=tx.outputs,
        )
        assert not nodes[0].submit_transaction(forged)

    def test_soft_forks_resolve_under_high_latency(self):
        slow = LinkParams(latency_s=3.0, jitter_s=1.0, bandwidth_bps=1e9)
        sim, net, nodes, keys = build_pow_network(
            FAST_BITCOIN, accounts=2, link=slow, seed=4
        )
        sim.run(until=3000)
        # With latency ~1/3 of the interval, forks must have occurred...
        assert sum(n.stats.reorgs for n in nodes) > 0
        # ...and still converged to a single chain.
        assert len({n.chain.head.block_id for n in nodes}) == 1

    def test_orphaned_transactions_are_remined(self):
        slow = LinkParams(latency_s=3.0, jitter_s=1.0, bandwidth_bps=1e9)
        sim, net, nodes, keys = build_pow_network(
            FAST_BITCOIN, accounts=2, link=slow, seed=4
        )
        alice, bob = keys
        tx = build_transaction(
            alice, nodes[0].utxo.spendable(alice.address), bob.address, 123
        )
        nodes[0].submit_transaction(tx)
        sim.run(until=3000)
        assert all(n.balance(bob.address) == 1_000_123 for n in nodes)


class TestAccountNetwork:
    def test_account_transfer_confirms(self):
        sim, net, nodes, keys = build_pow_network(FAST_ETHEREUM, accounts=2)
        alice, bob = keys
        tx = sign_account_transaction(alice, 0, bob.address, 777, gas_price=1)
        nodes[1].submit_transaction(tx)
        sim.run(until=300)
        assert all(n.balance(bob.address) == 1_000_777 for n in nodes)
        assert nodes[0].is_confirmed(tx.txid)

    def test_state_roots_agree_across_nodes(self):
        sim, net, nodes, keys = build_pow_network(FAST_ETHEREUM, accounts=3)
        alice, bob, carol = keys
        nodes[0].submit_transaction(
            sign_account_transaction(alice, 0, bob.address, 10, gas_price=1)
        )
        nodes[1].submit_transaction(
            sign_account_transaction(bob, 0, carol.address, 20, gas_price=1)
        )
        sim.run(until=300)
        roots = {n.state.root_hash for n in nodes}
        assert len(roots) == 1

    def test_nonce_ordering_enforced_end_to_end(self):
        sim, net, nodes, keys = build_pow_network(FAST_ETHEREUM, accounts=2)
        alice, bob = keys
        # Submit nonce 1 before nonce 0: it waits in mempools but cannot
        # execute until nonce 0 lands.
        tx1 = sign_account_transaction(alice, 1, bob.address, 5, gas_price=1)
        tx0 = sign_account_transaction(alice, 0, bob.address, 5, gas_price=1)
        nodes[0].submit_transaction(tx1)
        sim.run(until=60)
        nodes[0].submit_transaction(tx0)
        sim.run(until=400)
        assert nodes[0].balance(bob.address) == 1_000_010


class TestGoldenStateRoots:
    def test_three_block_account_chain(self):
        # Captured on the write-time-hashing trie (PR 11): transfers, a
        # contract deployment and two storage-writing calls.  Pins the
        # node encoding, so a trie change cannot silently fork the chain.
        keys = [KeyPair.from_seed(bytes([i]) * 32) for i in range(4)]
        miner = KeyPair.from_seed(bytes([100]) * 32)
        allocations = {kp.address: 1_000_000 for kp in keys}
        genesis = build_genesis_with_allocations(allocations)
        node = BlockchainNode("n0", ETHEREUM, genesis, genesis_allocations=allocations)
        counter = contract_address(keys[3].address, 0)
        deploy = {"gas_limit": 200_000, "data": counter_contract()}
        call = {"gas_limit": 100_000}
        bodies = [
            [(0, keys[1].address, 10, {}), (1, keys[2].address, 20, {}),
             (3, Address.zero(), 0, deploy)],
            [(0, keys[2].address, 5, {}), (0, keys[3].address, 7, {}),
             (3, counter, 0, call)],
            [(2, keys[0].address, 25, {}), (3, counter, 0, call),
             (1, keys[0].address, 1, {})],
        ]
        roots = [node.state.root_hash.hex]
        nonces = [0] * len(keys)
        for height, body in enumerate(bodies, start=1):
            for sender, recipient, value, kwargs in body:
                assert node.mempool.add(sign_account_transaction(
                    keys[sender], nonces[sender], recipient, value,
                    gas_price=1, **kwargs))
                nonces[sender] += 1
            block = node.create_block_template(float(height), miner.address)
            assert len(block.transactions) == len(body)
            assert node.receive_block(block).extended_main
            assert block.header.state_root == node.state.root_hash
            roots.append(node.state.root_hash.hex)
        assert node.state.storage(counter, 0) == 2
        assert roots == [
            "c11e412cb4a8fb069d3ddc3d0e4130f17a6feb5d9a5f7426c9efbe6fa2f68b1e",
            "12c418d24cd58942821aaecb853d4aecbbc7f759a93b22bb0bdc245fd275b1cb",
            "d108cd4dd7658b77d23d5ded91a743e51fe176d1be74b4841c2c2af80f30ab9d",
            "db81ab1e14bbb3c031fa6c644326b91fcae7f8bda506fe15d8b12821fe6c794b",
        ]


def account_pair():
    """Two funded keys, a miner key and two account-chain replicas."""
    keys = [KeyPair.from_seed(bytes([i]) * 32) for i in range(2)]
    miner = KeyPair.from_seed(bytes([100]) * 32)
    allocations = {kp.address: 1_000_000 for kp in keys}
    genesis = build_genesis_with_allocations(allocations)
    peer, replica = (
        BlockchainNode(nid, ETHEREUM, genesis, genesis_allocations=allocations)
        for nid in ("peer", "replica")
    )
    return keys, miner, peer, replica


class TestWrongStateRoot:
    """A header committing to the wrong state root must not move the
    replica: fork choice adopts the block before its state can be
    checked, so rejection has to un-connect it again."""

    def build(self):
        return account_pair()

    @staticmethod
    def with_header(block, **changes):
        return Block(header=replace(block.header, **changes),
                     transactions=block.transactions)

    def test_rejected_block_leaves_head_and_state(self):
        (alice, bob), miner, peer, replica = self.build()
        peer.mempool.add(sign_account_transaction(alice, 0, bob.address, 777, gas_price=1))
        honest = peer.create_block_template(1.0, miner.address)
        tampered = self.with_header(honest, state_root=Hash(b"\x13" * 32))
        genesis, root_before = replica.head, replica.state.root_hash

        with pytest.raises(ValidationError, match="state root mismatch"):
            replica.receive_block(tampered)
        assert replica.head == genesis
        assert tampered.block_id not in replica.chain
        assert replica.state.root_hash == root_before
        assert replica.balance(bob.address) == 1_000_000
        assert replica.balance(miner.address) == 0
        assert replica.stats.blocks_rejected == 1
        assert replica.stats.blocks_accepted == 0

        assert replica.receive_block(honest).extended_main
        assert replica.head == honest
        assert replica.state.root_hash == honest.header.state_root
        assert replica.balance(bob.address) == 1_000_777

    def test_rejected_reorg_falls_back_to_the_old_branch(self):
        (alice, bob), miner, peer, replica = self.build()
        peer.mempool.add(sign_account_transaction(alice, 0, bob.address, 777, gas_price=1))
        honest = peer.create_block_template(1.0, miner.address)
        assert replica.receive_block(honest).extended_main
        # A heavier branch whose first block lies about its state root:
        # only the reorg onto it executes that block.
        bad = self.with_header(honest, timestamp=2.0, state_root=Hash(b"\x13" * 32))
        child = assemble_block(
            parent=bad.header, transactions=[], timestamp=3.0,
            target=bad.header.target, proposer=miner.address,
        )
        assert not replica.receive_block(bad).extended_main
        with pytest.raises(ValidationError, match="state root mismatch"):
            replica.receive_block(child)
        assert replica.head == honest
        assert bad.block_id not in replica.chain
        assert child.block_id not in replica.chain
        assert replica.state.root_hash == honest.header.state_root
        assert replica.balance(bob.address) == 1_000_777
        assert replica.confirmations(honest.transactions[0].txid) == 1


class TestTemplateReuse:
    """A miner adopts the post-state its own template computed instead of
    executing the block a second time; any other body is executed."""

    @staticmethod
    def counted(monkeypatch):
        calls = []
        apply = AccountState.apply_transaction

        def counting(state, tx, miner):
            calls.append(tx.txid)
            return apply(state, tx, miner)

        monkeypatch.setattr(AccountState, "apply_transaction", counting)
        return calls

    def build(self):
        (alice, bob), miner, node, replica = account_pair()
        for nonce in range(3):
            tx = sign_account_transaction(alice, nonce, bob.address, 100, gas_price=1)
            assert node.mempool.add(tx) and replica.mempool.add(tx)
        return alice, bob, miner, node, replica

    def test_own_block_is_not_executed_twice(self, monkeypatch):
        alice, bob, miner, node, replica = self.build()
        calls = self.counted(monkeypatch)
        block = node.create_block_template(1.0, miner.address)
        assert len(calls) == 3
        assert node.receive_block(block).extended_main
        assert len(calls) == 3
        assert node.state.root_hash == block.header.state_root
        assert node.balance(bob.address) == 1_000_300
        # Another replica executes the same block and reaches the same root.
        assert replica.receive_block(block).extended_main
        assert len(calls) == 6
        assert replica.state.root_hash == node.state.root_hash

    def test_other_body_claiming_the_template_root_is_executed(self, monkeypatch):
        alice, bob, miner, node, replica = self.build()
        template = node.create_block_template(1.0, miner.address)
        calls = self.counted(monkeypatch)
        forged = assemble_block(
            parent=node.head.header, transactions=template.transactions[:2],
            timestamp=1.0, target=template.header.target, proposer=miner.address,
            state_root=template.header.state_root,
            receipts_root=template.header.receipts_root,
        )
        with pytest.raises(ValidationError, match="state root mismatch"):
            node.receive_block(forged)
        assert len(calls) == 2
        assert node.head == node.chain.genesis
        assert node.balance(bob.address) == 1_000_000
        # The template's own block is still adopted without a second run.
        assert node.receive_block(template).extended_main
        assert len(calls) == 2
        assert node.state.root_hash == template.header.state_root

    def test_zero_reward_template_matches_execution(self):
        # Execution credits no zero reward, so neither may the template:
        # it would write an empty miner account no replica writes.
        keys = [KeyPair.from_seed(bytes([i]) * 32) for i in range(2)]
        allocations = {kp.address: 1_000_000 for kp in keys}
        genesis = build_genesis_with_allocations(allocations)
        params = replace(ETHEREUM, block_reward=0)
        node, replica = (
            BlockchainNode(nid, params, genesis, genesis_allocations=allocations)
            for nid in ("node", "replica")
        )
        block = node.create_block_template(1.0, KeyPair.from_seed(bytes([100]) * 32).address)
        assert replica.receive_block(block).extended_main
        assert replica.state.root_hash == block.header.state_root


class TestInvalidUtxoBlock:
    """A UTXO block whose body fails to connect must not move the
    replica either: fork choice adopts it first, so rejection has to
    un-connect it, exactly as for a wrong account state root."""

    def build(self):
        keys = [KeyPair.from_seed(bytes([i]) * 32) for i in range(2)]
        miner = KeyPair.from_seed(bytes([100]) * 32)
        genesis = build_genesis_with_allocations({kp.address: 1_000_000 for kp in keys})
        peer, replica = (BlockchainNode(nid, BITCOIN, genesis) for nid in ("peer", "replica"))
        return keys, miner, peer, replica

    @staticmethod
    def block_on(parent, miner, pays, timestamp):
        """A MAX_TARGET block whose lone coinbase pays ``pays``."""
        return assemble_block(
            parent=parent.header,
            transactions=[make_coinbase(miner.address, pays, nonce=parent.height + 1)],
            timestamp=timestamp, target=MAX_TARGET, proposer=miner.address,
        )

    def test_rejected_block_leaves_head_and_state(self):
        _, miner, _, replica = self.build()
        genesis = replica.head
        bad = self.block_on(genesis, miner, BITCOIN.block_reward + 1, 1.0)
        value_before = replica.utxo.total_value()

        with pytest.raises(ValidationError, match="coinbase pays"):
            replica.receive_block(bad)
        assert replica.head == genesis
        assert bad.block_id not in replica.chain
        assert replica.utxo.total_value() == value_before
        assert replica.balance(miner.address) == 0
        assert replica.stats.blocks_rejected == 1
        assert replica.stats.blocks_accepted == 0

        # Nothing connects on top of the rejected block...
        orphan = self.block_on(bad, miner, BITCOIN.block_reward, 2.0)
        assert not replica.receive_block(orphan).block_accepted
        assert replica.chain.height == 0
        # ...and an honest block still extends genesis.
        honest = self.block_on(genesis, miner, BITCOIN.block_reward, 3.0)
        assert replica.receive_block(honest).extended_main
        assert replica.balance(miner.address) == BITCOIN.block_reward

    def test_rejected_reorg_falls_back_to_the_old_branch(self):
        (alice, bob), miner, peer, replica = self.build()
        tx = build_transaction(alice, peer.utxo.spendable(alice.address), bob.address, 777)
        assert peer.mempool.add(tx)
        honest = peer.create_block_template(1.0, miner.address)
        assert replica.receive_block(honest).extended_main
        # A heavier branch whose first block overpays its coinbase: only
        # the reorg onto it connects that block.
        bad = self.block_on(replica.chain.genesis, miner, BITCOIN.block_reward + 1, 2.0)
        child = self.block_on(bad, miner, BITCOIN.block_reward, 3.0)
        assert not replica.receive_block(bad).extended_main
        with pytest.raises(ValidationError, match="coinbase pays"):
            replica.receive_block(child)
        assert replica.head == honest
        assert bad.block_id not in replica.chain
        assert child.block_id not in replica.chain
        assert replica.balance(bob.address) == 1_000_777
        assert replica.utxo.total_value() == 2_000_000 + BITCOIN.block_reward
        assert replica.confirmations(tx.txid) == 1
        assert tx.txid not in replica.mempool

    def test_pooled_txid_does_not_vouch_for_a_resigned_sibling(self):
        # The mempool vouches by txid, and a txid commits to the input
        # signatures: a forged sibling spending the same outpoints is a
        # different txid and gets its signatures checked.
        (alice, bob), miner, _, replica = self.build()
        tx = build_transaction(alice, replica.utxo.spendable(alice.address), bob.address, 5)
        replica.handle_message("peer", Message(kind=MSG_TX, payload=tx,
                                               size_bytes=tx.size_bytes))
        assert tx.txid in replica.mempool
        from repro.blockchain.transaction import Transaction, TxInput

        mallory = KeyPair.from_seed(bytes([200]) * 32)
        forged = Transaction(
            inputs=tuple(TxInput(i.prev_txid, i.prev_index, mallory.public_key,
                                 i.signature) for i in tx.inputs),
            outputs=tx.outputs,
        )
        assert [i.outpoint for i in forged.inputs] == [i.outpoint for i in tx.inputs]
        block = assemble_block(
            parent=replica.head.header,
            transactions=[make_coinbase(miner.address, BITCOIN.block_reward, nonce=1),
                          forged],
            timestamp=1.0, target=MAX_TARGET, proposer=miner.address,
        )
        with pytest.raises(ValidationError, match="invalid signature"):
            replica.receive_block(block)
        assert replica.chain.height == 0
        assert replica.balance(alice.address) == 1_000_000


class TestPosNetwork:
    def test_pos_chain_advances_without_mining(self):
        keys = [KeyPair.from_seed(bytes([i]) * 32) for i in range(2)]
        allocations = {kp.address: 1_000_000 for kp in keys}
        genesis = build_genesis_with_allocations(allocations)
        sim = Simulator(seed=0)
        net = Network(sim)
        factory = lambda nid: BlockchainNode(  # noqa: E731
            nid, ETHEREUM_POS, genesis, genesis_allocations=allocations
        )
        nodes = list(complete_topology(net, 3, factory, FAST_LINK))

        validator_keys = [KeyPair.from_seed(bytes([50 + i]) * 32) for i in range(3)]
        validators = ValidatorSet()
        for i, vk in enumerate(validator_keys):
            validators.deposit(vk.address, (i + 1) * 1000)
        driver = PosSlotDriver(
            {vk.address: node for vk, node in zip(validator_keys, nodes)}, validators
        )
        driver.start(sim, until=200)
        sim.run(until=205)  # let the final slot's block propagate
        assert nodes[0].chain.height == pytest.approx(200 / 4.0, abs=2)
        assert len({n.chain.head.block_id for n in nodes}) == 1
        # Stake-weighted proposer mix: heaviest staker proposes most.
        counts = {
            vk.address: driver.proposer_history.count(vk.address)
            for vk in validator_keys
        }
        assert counts[validator_keys[2].address] > counts[validator_keys[0].address]


class TestPrunedReorg:
    """A UTXO replica reverts a block through its undo, not its stored
    body: after ``prune_chain`` drops the bodies, a reorg past them must
    leave the same UTXO set as on an unpruned twin."""

    @staticmethod
    def branch(genesis, keys, miner, payments):
        """Blocks on ``genesis`` carrying one payment each: ``payments``
        is [(sender index, recipient index, amount)]."""
        producer = BlockchainNode("producer", BITCOIN, genesis)
        blocks = []
        for height, (sender, recipient, amount) in enumerate(payments, start=1):
            key = keys[sender]
            tx = build_transaction(key, producer.utxo.spendable(key.address),
                                   keys[recipient].address, amount, fee=3)
            assert producer.mempool.add(tx)
            block = producer.create_block_template(float(height), miner.address)
            assert producer.receive_block(block).extended_main
            blocks.append(block)
        return blocks

    def test_reorg_below_pruned_bodies_matches_an_unpruned_twin(self):
        from repro.storage.pruning import prune_chain

        keys = [KeyPair.from_seed(bytes([40 + i]) * 32) for i in range(3)]
        miner = KeyPair.from_seed(bytes([140]) * 32)
        genesis = build_genesis_with_allocations({kp.address: 1_000_000 for kp in keys})
        # Chained spends on the branch that loses; the winner, one block
        # longer, spends the same genesis outputs to other recipients.
        losing = self.branch(genesis, keys, miner, [(0, 1, 500), (1, 2, 700), (2, 0, 900)])
        winning = self.branch(genesis, keys, miner,
                              [(0, 2, 111), (1, 0, 222), (2, 1, 333), (0, 1, 444)])
        pruned, twin = (BlockchainNode(nid, BITCOIN, genesis) for nid in ("pruned", "twin"))
        for node in (pruned, twin):
            for block in losing:
                assert node.receive_block(block).extended_main
        result = prune_chain(pruned.chain, keep_depth=1)
        assert result.blocks_pruned == 3  # genesis, a1, a2
        assert not pruned.chain.block_at_height(2).transactions

        for node in (pruned, twin):
            for block in winning:
                node.receive_block(block)
            assert node.head.block_id == winning[-1].block_id
            assert node.stats.reorgs == 1
        assert pruned.utxo._utxos.keys() == twin.utxo._utxos.keys()
        assert pruned.utxo.total_value() == twin.utxo.total_value() == (
            3_000_000 + 4 * BITCOIN.block_reward)
        for address in [kp.address for kp in keys] + [miner.address]:
            assert pruned.balance(address) == twin.balance(address)

    def test_reorg_below_pruned_bodies_readmits_what_the_undo_carried(self):
        """The orphaned transactions come from each block's undo, not its
        emptied body: the pruned replica readmits the same pool as its
        twin, and no orphan stays indexed as on-chain."""
        from repro.storage.pruning import prune_chain

        keys = [KeyPair.from_seed(bytes([60 + i]) * 32) for i in range(4)]
        miner = KeyPair.from_seed(bytes([160]) * 32)
        genesis = build_genesis_with_allocations({kp.address: 1_000_000 for kp in keys})
        # Key 3 pays only on the losing branch, so its payment survives
        # the reorg; key 0's is a double spend the winner pushes out.
        losing = self.branch(genesis, keys, miner, [(3, 1, 500), (0, 2, 700)])
        winning = self.branch(genesis, keys, miner, [(0, 1, 111), (1, 0, 222), (2, 1, 333)])
        pruned, twin = (BlockchainNode(nid, BITCOIN, genesis) for nid in ("pruned", "twin"))
        for node in (pruned, twin):
            for block in losing:
                assert node.receive_block(block).extended_main
        assert prune_chain(pruned.chain, keep_depth=1).blocks_pruned == 2
        assert not pruned.chain.block_at_height(1).transactions

        for node in (pruned, twin):
            for block in winning:
                node.receive_block(block)
            assert node.stats.reorgs == 1
        survivor, pushed_out = (block.transactions[1] for block in losing)
        assert [tx.txid for tx in pruned.mempool.pending()] == [
            tx.txid for tx in twin.mempool.pending()] == [survivor.txid]
        assert pruned.stats.orphaned_transactions == twin.stats.orphaned_transactions
        for node in (pruned, twin):
            assert pushed_out.txid not in node.mempool
            node.mempool.remove(survivor.txid)
            assert node._admit_transaction(survivor)


class TestSettledOutpointsAreRefused:
    """A payment whose input the chain already spent can never be mined:
    admission refuses it instead of pooling it for good."""

    def test_the_orphan_a_reorg_double_spent_is_refused(self):
        keys = [KeyPair.from_seed(bytes([60 + i]) * 32) for i in range(4)]
        miner = KeyPair.from_seed(bytes([160]) * 32)
        genesis = build_genesis_with_allocations({kp.address: 1_000_000 for kp in keys})
        losing = TestPrunedReorg.branch(genesis, keys, miner, [(3, 1, 500), (0, 2, 700)])
        winning = TestPrunedReorg.branch(genesis, keys, miner,
                                         [(0, 1, 111), (1, 0, 222), (2, 1, 333)])
        node = BlockchainNode("replica", BITCOIN, genesis)
        for block in losing + winning:
            node.receive_block(block)
        assert node.head.block_id == winning[-1].block_id
        survivor, pushed_out = (block.transactions[1] for block in losing)
        # The reorg pooled and counted only the survivor: the orphan the
        # winner double-spent was not readmitted just to be dropped.
        assert [tx.txid for tx in node.mempool.pending()] == [survivor.txid]
        assert node.stats.orphaned_transactions == 1
        assert node.mempool.total_dropped == 0
        assert not node._admit_transaction(pushed_out)
        assert pushed_out.txid not in node.mempool
        block = node.create_block_template(10.0, miner.address)
        assert [tx.txid for tx in block.transactions[1:]] == [survivor.txid]
        assert node.receive_block(block).extended_main
        assert len(node.mempool) == 0

    def test_an_account_reorg_counts_only_the_orphans_it_pools(self):
        """An account orphan whose nonce the winner used is swept out by
        ``remove_included`` and not counted; the other one survives."""
        keys = [KeyPair.from_seed(bytes([80 + i]) * 32) for i in range(4)]
        miner = KeyPair.from_seed(bytes([180]) * 32)
        allocations = {kp.address: 1_000_000 for kp in keys}
        genesis = build_genesis_with_allocations(allocations)

        def branch(payments):
            """One block per nonce-0 payment (sender, recipient, amount)."""
            producer = BlockchainNode("producer", ETHEREUM, genesis,
                                      genesis_allocations=allocations)
            blocks, txs = [], []
            for height, (sender, recipient, amount) in enumerate(payments, start=1):
                tx = sign_account_transaction(
                    keys[sender], 0, keys[recipient].address, amount, gas_price=1)
                assert producer.mempool.add(tx)
                block = producer.create_block_template(float(height), miner.address)
                assert producer.receive_block(block).extended_main
                blocks.append(block)
                txs.append(tx)
            return blocks, txs

        # Key 2 pays only on the losing branch; key 0's nonce 0 goes to a
        # different payment on the winner.
        losing, (survivor, stale) = branch([(2, 1, 500), (0, 1, 700)])
        winning, _ = branch([(0, 2, 111), (1, 2, 222), (3, 0, 333)])
        node = BlockchainNode("replica", ETHEREUM, genesis, genesis_allocations=allocations)
        for block in losing + winning:
            node.receive_block(block)
        assert node.head.block_id == winning[-1].block_id
        assert node.stats.reorgs == 1
        assert [tx.txid for tx in node.mempool.pending()] == [survivor.txid]
        assert stale.txid not in node.mempool
        assert node.stats.orphaned_transactions == 1

    def test_a_late_rival_of_a_confirmed_spend_is_refused(self):
        keys = [KeyPair.from_seed(bytes([70 + i]) * 32) for i in range(3)]
        miner = KeyPair.from_seed(bytes([170]) * 32)
        genesis = build_genesis_with_allocations({kp.address: 1_000_000 for kp in keys})
        node = BlockchainNode("replica", BITCOIN, genesis)
        at_genesis = node.utxo.spendable(keys[0].address)
        (block,) = TestPrunedReorg.branch(genesis, keys, miner, [(0, 1, 500)])
        assert node.receive_block(block).extended_main
        rival = build_transaction(keys[0], at_genesis, keys[2].address, 400, fee=9)
        assert not node._admit_transaction(rival)
        assert rival.txid not in node.mempool
        # A spend of a pooled, not yet mined output is still welcome.
        pay = build_transaction(keys[1], node.utxo.spendable(keys[1].address),
                                keys[2].address, 300, fee=3)
        assert node._admit_transaction(pay)
        change = [(pay.txid, 1, pay.outputs[1].amount)]
        assert node._admit_transaction(
            build_transaction(keys[1], change, keys[0].address, 100, fee=3))
        assert len(node.mempool) == 2


class TestRepeatedInput:
    """A transaction that lists one outpoint twice reads a doubled input
    value, so its fee looks fine; no UTXO set can spend it, though."""

    def test_admission_refuses_it_and_the_run_goes_on(self):
        params = replace(BITCOIN, target_block_interval_s=15.0)
        keys = [KeyPair.from_seed(bytes([i + 1]) * 32) for i in range(4)]
        genesis = build_genesis_with_allocations({k.address: 1000 for k in keys})
        sim = Simulator(seed=1)
        net = Network(sim)
        nodes = list(complete_topology(
            net, 3, lambda nid: BlockchainNode(nid, params, genesis), FAST_LINK))
        for i, node in enumerate(nodes):
            node.start_pow_mining(1 / 3, KeyPair.from_seed(bytes([100 + i]) * 32).address)
        sim.run(until=60)
        (entry,) = nodes[0].utxo.spendable(keys[0].address)
        tx = build_transaction(keys[0], [entry, entry], keys[1].address, 1990, fee=10)
        assert nodes[0].utxo.fee(tx) == 10  # the doubled input pays the fee
        assert not nodes[0].submit_transaction(tx)
        sim.run(until=600)  # a template that picked it used to raise here
        assert nodes[0].chain.height > 20
        assert all(tx.txid not in node.mempool for node in nodes)
        assert all(node.balance(keys[0].address) == 1000 for node in nodes)

    def test_template_skips_what_does_not_connect(self):
        keys = [KeyPair.from_seed(bytes([90 + i]) * 32) for i in range(3)]
        miner = KeyPair.from_seed(bytes([190]) * 32)
        genesis = build_genesis_with_allocations({k.address: 1000 for k in keys})
        node = BlockchainNode("miner", BITCOIN, genesis)
        (entry,) = node.utxo.spendable(keys[0].address)
        pay = build_transaction(keys[0], [entry], keys[1].address, 600, fee=10)
        child = build_transaction(keys[0], [(pay.txid, 1, 390)], keys[2].address, 380, fee=7)
        doubled = build_transaction(keys[1], node.utxo.spendable(keys[1].address) * 2,
                                    keys[2].address, 1990, fee=10)
        (txid, index, _) = node.utxo.spendable(keys[2].address)[0]
        inflating = build_transaction(keys[2], [(txid, index, 5000)], keys[0].address, 4000)
        unknown = build_transaction(keys[2], [(Hash(bytes([7]) * 32), 0, 100)],
                                    keys[0].address, 50)
        for tx in (pay, child, doubled, inflating, unknown):
            assert node.mempool.add(tx)  # past admission: only the template decides
        before = dict(node.utxo._utxos)
        block = node.create_block_template(1.0, miner.address)
        assert node.utxo._utxos == before  # every trial connect reverted
        assert [tx.txid for tx in block.transactions[1:]] == [pay.txid, child.txid]
        assert block.transactions[0].total_output() == BITCOIN.block_reward + 10 + 7
        assert node.receive_block(block).extended_main


class TestInvalidPeerBlock:
    def test_a_peer_block_that_fails_validation_is_dropped(self):
        from repro.blockchain.block import Block
        from repro.blockchain.node import MSG_BLOCK
        from repro.core.deploy import build_deployment

        dep = build_deployment("blockchain", node_count=3, seed=1)
        dep.setup(accounts=4, initial_balance=1000)
        dep.ledger.advance(30.0)
        sender = dep.nodes[1]
        template = sender.create_block_template(dep.simulator.now, sender.miner.coinbase_address)
        # The template's header over a different coinbase body.
        body = (make_coinbase(sender.miner.coinbase_address, 1, nonce=999),)
        bad = Block(header=template.header, transactions=body)
        heads = [node.head for node in dep.nodes]
        sender.broadcast(Message(kind=MSG_BLOCK, payload=bad,
                                 size_bytes=bad.size_bytes, dedup_key=bad.block_id))
        dep.ledger.advance(1.0)  # used to raise "Merkle root does not match"
        assert [node.stats.blocks_rejected for node in dep.nodes] == [1, 0, 1]
        assert [node.head for node in dep.nodes] == heads
        assert all(bad.block_id not in node.chain for node in dep.nodes)
