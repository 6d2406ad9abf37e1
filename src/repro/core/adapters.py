"""Ledger-interface adapters for the paradigms.

:class:`BlockchainLedger` stands up a PoW blockchain network (UTXO or
account model per its :class:`~repro.blockchain.params.ChainParams`);
:class:`DagLedger` stands up a Nano testbed; :class:`BftLedger` stands
up a HotStuff-style quorum-certificate roster.  All expose the uniform
:class:`~repro.core.ledger.Ledger` API so the comparison layer can drive
them with identical workloads.

The shared lifecycle — simulator/network/nodes, the clock, submit
bookkeeping, confirmation statistics — lives in the
:class:`~repro.core.ledger.Ledger` base; each adapter below states only
what its paradigm does differently.  Adapter constructors are the one
home of every default; :func:`repro.core.deploy.build_deployment` is
the uniform factory on top that also wires consensus-engine selection
and Byzantine adversary mixes.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, List, Optional, Sequence

from repro.common.errors import ReproError, ValidationError
from repro.common.types import Hash, TxId
from repro.crypto.keys import KeyPair
from repro.net.link import LinkParams
from repro.net.network import Network
from repro.net.topology import complete_topology
from repro.protocol import protocol_nodes
from repro.sim.simulator import Simulator
from repro.blockchain.block import build_genesis_with_allocations
from repro.blockchain.mempool import MempoolLimits
from repro.blockchain.node import BlockchainNode
from repro.blockchain.params import BITCOIN, ChainParams
from repro.storage.live import (
    LivePruneStats,
    attach_chain_pruning,
    attach_lattice_pruning,
)
from repro.storage.pruning import DEFAULT_KEEP_DEPTH
from repro.blockchain.transaction import TxOutput, build_transaction
from repro.blockchain.wallet import AccountWallet, UtxoWallet
from repro.dag.blocks import make_send
from repro.dag.bootstrap import NanoTestbed, build_nano_testbed, fund_accounts
from repro.dag.lattice import PendingInfo
from repro.dag.node import NanoNode
from repro.dag.params import NanoParams
from repro.consensus.hotstuff import BftNode, BftPayment
from repro.core.invariants import (
    AuditReport,
    audit_bft,
    audit_blockchain,
    audit_lattice,
)
from repro.core.ledger import Ledger, LedgerStats
from repro.workloads.generators import PaymentEvent

#: Outpoint/source hashes used by the deliberate supply-corruption
#: backdoor — recognizable in audit evidence.
_CORRUPT_TXID = TxId(b"\xfc" * 32)
_CORRUPT_SOURCE = Hash(b"\xfd" * 32)


class BlockchainLedger(Ledger):
    """A mining blockchain network behind the uniform interface."""

    paradigm = "blockchain"
    #: Fee (UTXO) or gas price (account model) of every wallet payment.
    fee = 1

    def __init__(
        self,
        params: ChainParams = BITCOIN,
        node_count: int = 5,
        link_params: Optional[LinkParams] = None,
        seed: int = 0,
        mempool_limits: Optional[MempoolLimits] = None,
        prune_interval_s: Optional[float] = None,
        prune_keep_depth: int = DEFAULT_KEEP_DEPTH,
        byzantine_nodes: int = 0,
        byzantine_behavior: str = "selfish",
        plane_factory: Optional[Callable[[Simulator], Network]] = None,
    ) -> None:
        super().__init__(node_count, link_params, seed, byzantine_nodes,
                         byzantine_behavior, plane_factory)
        self.name = params.name
        self.params = params
        self.mempool_limits = mempool_limits
        self.prune_interval_s = prune_interval_s
        self.prune_keep_depth = prune_keep_depth
        self.prune_stats: List[LivePruneStats] = []
        self._rng = random.Random(seed)
        self._utxo_wallets: List[UtxoWallet] = []
        self._account_wallets: List[AccountWallet] = []
        self._expected_supply_base = 0

    # ----------------------------------------------------------------- setup

    def setup(self, accounts: int, initial_balance: int) -> None:
        self.keys = [KeyPair.generate(self._rng) for _ in range(accounts)]
        allocations = {kp.address: initial_balance for kp in self.keys}
        self._build_fabric()

        self._expected_supply_base = accounts * initial_balance
        if self.params.uses_gas:
            # Account model: allocations live in the state trie; the
            # genesis block itself carries no transactions.
            miner_key = KeyPair.generate(self._rng)
            genesis = build_genesis_with_allocations({miner_key.address: 1})
            factory = lambda nid: BlockchainNode(  # noqa: E731
                nid, self.params, genesis, genesis_allocations=allocations,
                mempool_limits=self.mempool_limits,
            )
        else:
            genesis = build_genesis_with_allocations(allocations)
            factory = lambda nid: BlockchainNode(  # noqa: E731
                nid, self.params, genesis, mempool_limits=self.mempool_limits
            )

        nodes = complete_topology(self.network, self.node_count, factory, self.link_params)
        # Filter on the stack interface, not the concrete class: the
        # factory is the only thing that knows which paradigm runs here.
        self.nodes = protocol_nodes(nodes)
        for node in self.nodes:
            miner = KeyPair.generate(self._rng)
            node.start_pow_mining(1.0 / self.node_count, miner.address)
        for node in self.nodes[: self.byzantine_nodes]:
            # Selfish mining (the blockchain family): mined blocks are
            # withheld and released when a competing honest block shows
            # up, orphaning honest work.  Per-node fork_rng stream so
            # the adversary's hold-or-release coin never perturbs the
            # honest miners' schedules.
            node.selfish_mining = True
            node.byz_rng = self.simulator.fork_rng(
                f"byz:{self.byzantine_behavior}:{node.node_id}")
            self._flag_byzantine(node)
        if self.prune_interval_s is not None:
            # Bounded-memory soak: every replica sheds old block bodies
            # on a periodic tick while the run continues (Section V-A).
            for node in self.nodes:
                _, stats = attach_chain_pruning(
                    node, self.prune_interval_s, keep_depth=self.prune_keep_depth
                )
                self.prune_stats.append(stats)

        if self.params.uses_gas:
            self._account_wallets = [AccountWallet(kp) for kp in self.keys]
        else:
            coinbase = genesis.transactions[0]
            self._utxo_wallets = []
            for kp in self.keys:
                wallet = UtxoWallet(kp)
                wallet.track_funding(coinbase)
                self._utxo_wallets.append(wallet)

    # ---------------------------------------------------------------- submit

    def submit(self, event: PaymentEvent) -> Optional[Hash]:
        """Pay from the sender's wallet through its home node.  The
        wallet's optimistic view survives only if that node admitted the
        transaction: after a refusal (full mempool, fee floor) it is
        rolled back, or every later payment of the sender would spend
        the change — or skip the nonce — of a transaction no node holds."""
        node = self.nodes[event.sender_index % len(self.nodes)]
        if self.params.uses_gas:
            wallet = self._account_wallets[event.sender_index]
            nonce = wallet.next_nonce
            try:
                tx = wallet.pay(self.keys[event.recipient_index].address,
                                event.amount, gas_price=self.fee)
            except ValidationError:
                return None
            if not node.submit_transaction(tx):
                wallet.resync(nonce)
                return None
        else:
            wallet = self._utxo_wallets[event.sender_index]
            recipient = self._utxo_wallets[event.recipient_index]
            before = wallet.snapshot()
            try:
                tx = wallet.pay(recipient.address, event.amount, fee=self.fee)
            except ValidationError:
                return None
            if not node.submit_transaction(tx):
                wallet.restore(before)
                return None
            recipient.receive_from(tx)
        return self._record_submit(tx.txid)

    # ---------------------------------------------------------------- reads

    def serialized_size(self) -> int:
        node = self.nodes[0]
        size = node.chain.total_size_bytes()
        if node.state is not None:
            # Every stored trie version: one per block and per template.
            size += node.state.store_size_bytes()
        return size

    def _confirmed_at(self, txid: Hash) -> Optional[float]:
        """Post-hoc: the timestamp of the block that put
        ``confirmation_depth`` blocks on top of the containing one."""
        chain = self.nodes[0].chain
        block_id = self.nodes[0]._tx_blocks.get(txid)  # noqa: SLF001
        if block_id is None or not chain.is_on_main_chain(block_id):
            return None
        confirm_height = (chain.block(block_id).height
                          + self.params.confirmation_depth - 1)
        if confirm_height > chain.height:
            return None  # not yet confirmed
        return chain.block_at_height(confirm_height).header.timestamp

    def _paradigm_stats(self, stats: LedgerStats) -> None:
        stats.forks_observed = self.nodes[0].chain.reorg_count
        stats.reorgs = sum(n.stats.reorgs for n in self.nodes)
        stats.extra["blocks"] = float(self.nodes[0].chain.height)
        stats.extra["orphaned_blocks"] = float(
            sum(n.stats.orphaned_blocks for n in self.nodes)
        )

    # ------------------------------------------- in-loop check capabilities

    def audit(self) -> Optional[AuditReport]:
        if not self.nodes:
            return None
        return audit_blockchain(
            self.nodes,
            expected_supply_base=self._expected_supply_base,
            agreement_depth=self.params.confirmation_depth,
        )

    def state_digest(self) -> str:
        digest = hashlib.sha256()
        for node in self.nodes:
            head = node.chain.head
            digest.update(
                f"{node.node_id}:{node.chain.height}:{head.block_id.hex}\n".encode()
            )
        for index, key in enumerate(self.keys):
            digest.update(f"{index}:{self.balance(index)}\n".encode())
        return digest.hexdigest()

    def submit_double_spend(self, event: PaymentEvent) -> List[Hash]:
        """Two transactions spending the same outpoints, fed to different
        replicas' mempools — at most one may survive on any main chain."""
        if self.params.uses_gas or not self.nodes:
            return super().submit_double_spend(event)
        wallet = self._utxo_wallets[event.sender_index]
        recipient = self._utxo_wallets[event.recipient_index]
        before, spendable = wallet.snapshot(), wallet.spendable()
        try:
            honest = wallet.pay(recipient.address, event.amount, fee=self.fee)
            decoy_recipient = self.keys[
                (event.recipient_index + 1) % len(self.keys)
            ].address
            conflicting = build_transaction(
                wallet.keypair, spendable,
                decoy_recipient, event.amount, fee=self.fee,
            )
        except ValidationError:
            return []
        node_a = self.nodes[event.sender_index % len(self.nodes)]
        node_b = self.nodes[(event.sender_index + 1) % len(self.nodes)]
        if not node_a.submit_transaction(honest):
            # No honest leg, no conflict: the decoy alone would spend
            # outputs the rolled-back wallet still counts on.
            wallet.restore(before)
            return []
        recipient.receive_from(honest)
        entries = [self._record_submit(honest.txid)]
        if node_b.submit_transaction(conflicting):
            entries.append(conflicting.txid)
        return entries

    def inject_supply_corruption(self, amount: int) -> bool:
        """Credit a phantom UTXO (or account balance) on one replica —
        the seeded violation the in-loop audit must catch."""
        if not self.nodes:
            return False
        node = self.nodes[0]
        if node.utxo is not None:
            node.utxo._add(  # noqa: SLF001 - deliberate corruption backdoor
                (_CORRUPT_TXID, 0),
                TxOutput(amount=amount, recipient=self.keys[0].address),
            )
            return True
        if node.state is not None:
            node.state.credit(self.keys[0].address, amount)
            return True
        return False


class DagLedger(Ledger):
    """A Nano block-lattice deployment behind the uniform interface."""

    paradigm = "dag"

    def __init__(
        self,
        params: Optional[NanoParams] = None,
        node_count: int = 8,
        representative_count: Optional[int] = None,
        link_params: Optional[LinkParams] = None,
        seed: int = 0,
        processing_tps: Optional[float] = None,
        prune_interval_s: Optional[float] = None,
        byzantine_nodes: int = 0,
        byzantine_behavior: str = "tip-spam",
        plane_factory: Optional[Callable[[Simulator], Network]] = None,
    ) -> None:
        super().__init__(node_count, link_params, seed, byzantine_nodes,
                         byzantine_behavior, plane_factory)
        self.params = params or NanoParams(work_difficulty=1)
        self.name = self.params.name
        #: default: half the roster — at least two, at most everyone
        self.representative_count = (
            representative_count if representative_count is not None
            else min(node_count, max(2, node_count // 2)))
        self.processing_tps = processing_tps
        self.prune_interval_s = prune_interval_s
        self.prune_stats: List[LivePruneStats] = []
        self.testbed: Optional[NanoTestbed] = None
        self.supply = 10**15

    def setup(self, accounts: int, initial_balance: int) -> None:
        # The testbed draws its keys between building the fabric and the
        # nodes, so it builds the fabric itself (from the same recipe).
        self.testbed = testbed = build_nano_testbed(
            node_count=self.node_count,
            representative_count=self.representative_count,
            supply=self.supply,
            params=self.params,
            link_params=self.link_params,
            seed=self.seed,
            processing_tps=self.processing_tps,
            network_factory=self.plane_factory,
        )
        self.simulator, self.network = testbed.simulator, testbed.network
        self.nodes = testbed.nodes
        self.keys = fund_accounts(testbed, accounts, initial_balance, settle_time=2.0)
        for node in self.nodes[: self.byzantine_nodes]:
            # Conflicting-tip spam (the DAG family): marked replicas are
            # the injection points :meth:`submit_tip_spam` floods from.
            self._flag_byzantine(node)
        if self.prune_interval_s is not None:
            # Live *current*-node pruning (Section V-B): trim every
            # replica to heads + unsettled sends on a periodic tick.
            for node in self.nodes:
                _, stats = attach_lattice_pruning(node, self.prune_interval_s)
                self.prune_stats.append(stats)

    def submit(self, event: PaymentEvent) -> Optional[Hash]:
        sender = self.keys[event.sender_index]
        wallet = self.testbed.node_for(sender.address)
        try:
            block = wallet.send_payment(
                sender.address,
                self.keys[event.recipient_index].address,
                event.amount,
            )
        except ReproError:
            return None
        return self._record_submit(block.block_hash)

    def serialized_size(self) -> int:
        return self.nodes[0].lattice.serialized_size()

    def _confirmed_at(self, block_hash: Hash) -> Optional[float]:
        return self.nodes[0].confirmation_times.get(block_hash)

    def _paradigm_stats(self, stats: LedgerStats) -> None:
        observer = self.nodes[0]
        stats.forks_observed = sum(n.stats.forks_seen for n in self.nodes)
        stats.extra["dag_blocks"] = float(observer.lattice.block_count())
        stats.extra["elections"] = float(observer.elections.elections_started)

    # ------------------------------------------- in-loop check capabilities

    def audit(self) -> Optional[AuditReport]:
        if not self.nodes:
            return None
        return audit_lattice(self.nodes, expected_supply=self.supply)

    def state_digest(self) -> str:
        digest = hashlib.sha256()
        for node in self.nodes:
            lattice = node.lattice
            digest.update(
                f"{node.node_id}:{lattice.block_count()}:"
                f"{lattice.pending_count()}\n".encode()
            )
            for chain in sorted(lattice.chains(),
                                key=lambda c: bytes(c.account)):
                digest.update(
                    f"  {chain.account.hex}:{chain.balance}:"
                    f"{chain.head.block_hash.hex}\n".encode()
                )
        return digest.hexdigest()

    def submit_double_spend(self, event: PaymentEvent) -> List[Hash]:
        """Two send blocks claiming the same predecessor, delivered to
        different replicas — the fork that triggers an election; at most
        one block may survive everywhere (Section III-B/IV-B)."""
        return self._submit_conflicting(event, 2, self.nodes)

    def submit_tip_spam(self, event: PaymentEvent, fanout: int = 3) -> List[Hash]:
        """Conflicting-tip spam: ``fanout`` mutually conflicting send
        blocks claiming one predecessor, each injected at a different
        replica (Byzantine-marked replicas first) and flooded from
        there.  A wider version of the double-spend fork: every pair
        conflicts, so elections must collapse ``fanout`` tips to at most
        one survivor everywhere."""
        if fanout < 2:
            return self.submit_double_spend(event)
        origins = [n for n in self.nodes if n.is_byzantine] or self.nodes
        return self._submit_conflicting(event, fanout, origins)

    def _submit_conflicting(self, event: PaymentEvent, fanout: int,
                            origins: Sequence[NanoNode]) -> List[Hash]:
        """``fanout`` sends off one head (the first is the honest one),
        the i-th injected at ``origins[(sender + i) % len(origins)]``."""
        sender = self.keys[event.sender_index]
        wallet = self.testbed.node_for(sender.address)
        chain = wallet.lattice.chain(sender.address)
        if chain is None or chain.balance < event.amount:
            return []
        head = chain.head
        blocks = []
        for i in range(fanout):
            decoy = self.keys[(event.recipient_index + i) % len(self.keys)]
            blocks.append(make_send(
                sender, previous=head, destination=decoy.address,
                amount=event.amount,
                work_difficulty=self.params.work_difficulty,
            ))
        for i, block in enumerate(blocks):
            node = origins[(event.sender_index + i) % len(origins)]
            message = node.block_message(block)
            # Ingest at the victim replica, then flood from it so the
            # rest of the network (and its representatives) see the
            # conflict and an election resolves it.
            node.deliver("fuzz-adversary", message)
            node.broadcast(message)
        self._record_submit(blocks[0].block_hash)
        return [b.block_hash for b in blocks]

    def inject_supply_corruption(self, amount: int) -> bool:
        """Park phantom value in one replica's pending table — the
        seeded violation the in-loop audit must catch."""
        if not self.nodes:
            return False
        lattice = self.nodes[0].lattice
        lattice._pending_add(  # noqa: SLF001 - deliberate corruption backdoor
            PendingInfo(
                source_hash=_CORRUPT_SOURCE,
                source_account=self.keys[0].address,
                destination=self.keys[-1].address,
                amount=amount,
            )
        )
        return True


class BftLedger(Ledger):
    """A HotStuff-style quorum-certificate roster behind the uniform
    interface — deterministic finality as the third contender next to
    Nakamoto probabilistic confirmation and block-lattice elections.

    Accounts are plain indices in a replicated balance table; a payment
    is a state-machine command that commits when a block carrying it
    gains a commit certificate.  ``byzantine_nodes`` replicas (roster
    prefix) run ``byzantine_behavior`` (equivocate / withhold), each
    with its own forked rng stream; ``quorum_f_override`` widens the
    tolerated fault count past n/3 to reproduce the classical safety
    violation on demand.
    """

    paradigm = "bft"

    def __init__(
        self,
        node_count: int = 4,
        link_params: Optional[LinkParams] = None,
        seed: int = 0,
        view_timeout_s: float = 4.0,
        max_batch: int = 16,
        byzantine_nodes: int = 0,
        byzantine_behavior: str = "equivocate",
        quorum_f_override: Optional[int] = None,
    ) -> None:
        super().__init__(node_count, link_params, seed, byzantine_nodes,
                         byzantine_behavior)
        self.name = "hotstuff"
        self.view_timeout_s = view_timeout_s
        self.max_batch = max_batch
        self.quorum_f_override = quorum_f_override
        self._accounts = 0
        self._expected_supply = 0
        self._payment_seq = 0

    # ----------------------------------------------------------------- setup

    def setup(self, accounts: int, initial_balance: int) -> None:
        self._build_fabric()
        self._accounts = accounts
        self._expected_supply = accounts * initial_balance
        byz_ids = {f"n{i}" for i in range(self.byzantine_nodes)}

        def factory(nid: str) -> BftNode:
            byzantine = nid in byz_ids
            return BftNode(
                nid,
                view_timeout_s=self.view_timeout_s,
                max_batch=self.max_batch,
                quorum_f_override=self.quorum_f_override,
                is_byzantine=byzantine,
                byzantine_behavior=(
                    self.byzantine_behavior if byzantine else None),
                byz_rng=(
                    self.simulator.fork_rng(
                        f"byz:{self.byzantine_behavior}:{nid}")
                    if byzantine else None),
            )

        nodes = complete_topology(
            self.network, self.node_count, factory, self.link_params)
        self.nodes = protocol_nodes(nodes)
        roster = [node.node_id for node in self.nodes]
        balances = {i: initial_balance for i in range(accounts)}
        for node in self.nodes:
            node.configure_validators(roster)
            node.fund(balances)
            if node.is_byzantine:
                node.colluders = tuple(
                    sorted(byz_ids - {node.node_id}))
                self._flag_byzantine(node)
        for node in self.nodes:
            node.start()

    # ---------------------------------------------------------------- submit

    def submit(self, event: PaymentEvent) -> Optional[Hash]:
        assert self.nodes, "setup() first"
        self._payment_seq += 1
        payment_id = Hash(hashlib.sha256(
            f"bftpay:{self._payment_seq}:{event.sender_index}:"
            f"{event.recipient_index}:{event.amount}".encode()).digest())
        payment = BftPayment(
            payment_id=payment_id,
            sender=event.sender_index % self._accounts,
            recipient=event.recipient_index % self._accounts,
            amount=event.amount,
        )
        node = self.nodes[event.sender_index % len(self.nodes)]
        if not node.submit_payment(payment):
            return None
        return self._record_submit(payment_id)

    # ---------------------------------------------------------------- reads

    def is_confirmed(self, entry: Hash) -> bool:
        return entry in self.nodes[0].committed_payments

    def balance(self, account_index: int) -> int:
        return self.nodes[0].balances.get(account_index, 0)

    def serialized_size(self) -> int:
        return sum(b.size_bytes for b in self.nodes[0].blocks.values())

    def _confirmed_at(self, payment_id: Hash) -> Optional[float]:
        return self.nodes[0].committed_payments.get(payment_id)

    def _paradigm_stats(self, stats: LedgerStats) -> None:
        stats.forks_observed = sum(
            n.stats.equivocations_detected for n in self.nodes)
        stats.extra["committed_blocks"] = float(self.nodes[0].committed_height)
        stats.extra["view"] = float(max(n.current_view for n in self.nodes))

    # ------------------------------------------- in-loop check capabilities

    def audit(self) -> Optional[AuditReport]:
        if not self.nodes:
            return None
        return audit_bft(self.nodes, expected_supply=self._expected_supply)

    def state_digest(self) -> str:
        digest = hashlib.sha256()
        for node in self.nodes:
            digest.update(f"{node.node_id}:\n".encode())
            for line in node.state_lines():
                digest.update(f"  {line}\n".encode())
        return digest.hexdigest()

    def inject_supply_corruption(self, amount: int) -> bool:
        """Credit a phantom balance on one replica — the seeded
        violation the in-loop audit must catch."""
        if not self.nodes:
            return False
        balances = self.nodes[0].balances
        balances[0] = balances.get(0, 0) + amount
        return True
