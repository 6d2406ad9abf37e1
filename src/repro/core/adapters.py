"""Ledger-interface adapters for the paradigms.

:class:`BlockchainLedger` stands up a PoW blockchain network (UTXO or
account model per its :class:`~repro.blockchain.params.ChainParams`);
:class:`DagLedger` stands up a Nano testbed; :class:`BftLedger` stands
up a HotStuff-style quorum-certificate roster.  All expose the uniform
:class:`~repro.core.ledger.Ledger` API so the comparison layer can drive
them with identical workloads.

Prefer constructing deployments through
:func:`repro.core.deploy.build_deployment` — the uniform factory that
also wires consensus-engine selection and Byzantine adversary mixes.
Direct adapter construction remains supported for compatibility (see
docs/architecture.md for the deprecation timeline).
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import ReproError, ValidationError
from repro.common.types import Hash, TxId
from repro.crypto.keys import KeyPair
from repro.net.link import LinkParams
from repro.net.message import Message
from repro.net.network import Network
from repro.net.topology import complete_topology
from repro.protocol import aggregate_layer_counters, protocol_nodes
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
from repro.blockchain.transaction import Transaction, TxOutput, build_transaction
from repro.blockchain.wallet import AccountWallet, UtxoWallet
from repro.dag.blocks import make_send
from repro.dag.bootstrap import NanoTestbed, build_nano_testbed, fund_accounts
from repro.dag.lattice import PendingInfo
from repro.dag.node import MSG_NANO_BLOCK
from repro.dag.params import NanoParams
from repro.consensus.hotstuff import BftNode, BftPayment
from repro.core.invariants import (
    AuditReport,
    audit_bft,
    audit_blockchain,
    audit_lattice,
)
from repro.core.ledger import DeploymentView, Ledger, LedgerStats
from repro.trace import BYZANTINE
from repro.workloads.generators import PaymentEvent

Outpoint = Tuple[TxId, int]

#: Outpoint/source hashes used by the deliberate supply-corruption
#: backdoor — recognizable in audit evidence.
_CORRUPT_TXID = TxId(b"\xfc" * 32)
_CORRUPT_SOURCE = Hash(b"\xfd" * 32)


class BlockchainLedger(Ledger):
    """A mining blockchain network behind the uniform interface."""

    paradigm = "blockchain"

    def __init__(
        self,
        params: ChainParams = BITCOIN,
        node_count: int = 5,
        link_params: Optional[LinkParams] = None,
        seed: int = 0,
        fee: int = 1,
        mempool_limits: Optional[MempoolLimits] = None,
        prune_interval_s: Optional[float] = None,
        prune_keep_depth: int = DEFAULT_KEEP_DEPTH,
        byzantine_nodes: int = 0,
        byzantine_behavior: str = "selfish",
        plane_factory: Optional[Callable[[Simulator], Network]] = None,
    ) -> None:
        self.name = params.name
        self.params = params
        self.node_count = node_count
        self.link_params = link_params or LinkParams()
        self.seed = seed
        self.fee = fee
        #: MessagePlane constructor (simulator -> plane); None = exact
        #: reference Network.  How the sharded tier slots in underneath
        #: an unchanged protocol stack.
        self.plane_factory = plane_factory
        self.mempool_limits = mempool_limits
        self.prune_interval_s = prune_interval_s
        self.prune_keep_depth = prune_keep_depth
        self.byzantine_nodes = byzantine_nodes
        self.byzantine_behavior = byzantine_behavior
        self.prune_stats: List[LivePruneStats] = []
        self._rng = random.Random(seed)
        self.simulator: Optional[Simulator] = None
        self.network: Optional[Network] = None
        self.nodes: List[BlockchainNode] = []
        self.keys: List[KeyPair] = []
        self._utxo_wallets: List[UtxoWallet] = []
        self._account_wallets: List[AccountWallet] = []
        self._submit_times: Dict[Hash, float] = {}
        self._stats = LedgerStats()
        self._expected_supply_base = 0

    # ----------------------------------------------------------------- setup

    def setup(self, accounts: int, initial_balance: int) -> None:
        self.keys = [KeyPair.generate(self._rng) for _ in range(accounts)]
        allocations = {kp.address: initial_balance for kp in self.keys}
        self.simulator = Simulator(seed=self.seed)
        self.network = (self.plane_factory(self.simulator)
                        if self.plane_factory is not None
                        else Network(self.simulator))

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
            node.is_byzantine = True
            node.selfish_mining = True
            node.byz_rng = self.simulator.fork_rng(
                f"byz:{self.byzantine_behavior}:{node.node_id}")
            self.network.tracer.emit(
                self.simulator.now, BYZANTINE, src=node.node_id,
                reason=self.byzantine_behavior)
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
        wallet_node = self.nodes[event.sender_index % len(self.nodes)]
        try:
            if self.params.uses_gas:
                tx = self._make_account_tx(event)
            else:
                tx = self._make_utxo_tx(event)
        except ValidationError:
            return None
        if not wallet_node.submit_transaction(tx):
            return None
        self._stats.entries_created += 1
        self._submit_times[tx.txid] = self.now()
        return tx.txid

    def _make_utxo_tx(self, event: PaymentEvent) -> Transaction:
        sender_wallet = self._utxo_wallets[event.sender_index]
        recipient_wallet = self._utxo_wallets[event.recipient_index]
        tx = sender_wallet.pay(recipient_wallet.address, event.amount, fee=self.fee)
        recipient_wallet.receive_from(tx)
        return tx

    def _make_account_tx(self, event: PaymentEvent):
        return self._account_wallets[event.sender_index].pay(
            self.keys[event.recipient_index].address,
            event.amount,
            gas_price=max(self.fee, 1),
        )

    # ----------------------------------------------------------------- clock

    def advance(self, duration_s: float) -> None:
        assert self.simulator is not None
        self.simulator.run(until=self.simulator.now + duration_s)

    def now(self) -> float:
        return self.simulator.now if self.simulator else 0.0

    # ---------------------------------------------------------------- reads

    def is_confirmed(self, entry: Hash) -> bool:
        return self.nodes[0].is_confirmed(entry)

    def balance(self, account_index: int) -> int:
        return self.nodes[0].balance(self.keys[account_index].address)

    def serialized_size(self) -> int:
        node = self.nodes[0]
        size = node.chain.total_size_bytes()
        if node.state is not None:
            # Every stored trie version: one per block and per template.
            size += node.state.store_size_bytes()
        return size

    def stats(self) -> LedgerStats:
        observer = self.nodes[0]
        self._stats.forks_observed = observer.chain.reorg_count
        self._stats.reorgs = sum(n.stats.reorgs for n in self.nodes)
        self._stats.entries_confirmed = sum(
            1 for txid in self._submit_times if observer.is_confirmed(txid)
        )
        self._stats.confirmation_latencies_s = self._confirmation_latencies()
        self._stats.extra["blocks"] = float(observer.chain.height)
        self._stats.extra["orphaned_blocks"] = float(
            sum(n.stats.orphaned_blocks for n in self.nodes)
        )
        self._stats.extra.update(aggregate_layer_counters(self.nodes))
        return self._stats

    def _confirmation_latencies(self) -> List[float]:
        """Post-hoc: time from submission until the containing block had
        ``confirmation_depth`` blocks on top (using block timestamps)."""
        observer = self.nodes[0]
        depth = self.params.confirmation_depth
        latencies: List[float] = []
        for txid, submitted in self._submit_times.items():
            block_id = observer._tx_blocks.get(txid)  # noqa: SLF001
            if block_id is None or not observer.chain.is_on_main_chain(block_id):
                continue
            included = observer.chain.block(block_id)
            confirm_height = included.height + depth - 1
            if confirm_height > observer.chain.height:
                continue  # not yet confirmed
            confirm_block = observer.chain.block_at_height(confirm_height)
            latencies.append(max(0.0, confirm_block.header.timestamp - submitted))
        return latencies

    # ------------------------------------------- in-loop check capabilities

    def deployment(self) -> Optional[DeploymentView]:
        if self.simulator is None:
            return None
        return DeploymentView(
            simulator=self.simulator, network=self.network, nodes=self.nodes
        )

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
        sender_wallet = self._utxo_wallets[event.sender_index]
        spendable_before = sender_wallet.spendable()
        try:
            honest = sender_wallet.pay(
                self._utxo_wallets[event.recipient_index].address,
                event.amount, fee=self.fee,
            )
            decoy_recipient = self.keys[
                (event.recipient_index + 1) % len(self.keys)
            ].address
            conflicting = build_transaction(
                sender_wallet.keypair, spendable_before,
                decoy_recipient, event.amount, fee=self.fee,
            )
        except ValidationError:
            return []
        self._utxo_wallets[event.recipient_index].receive_from(honest)
        entries: List[Hash] = []
        node_a = self.nodes[event.sender_index % len(self.nodes)]
        node_b = self.nodes[(event.sender_index + 1) % len(self.nodes)]
        if node_a.submit_transaction(honest):
            self._stats.entries_created += 1
            self._submit_times[honest.txid] = self.now()
            entries.append(honest.txid)
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
        representative_count: int = 4,
        link_params: Optional[LinkParams] = None,
        seed: int = 0,
        processing_tps: Optional[float] = None,
        prune_interval_s: Optional[float] = None,
        byzantine_nodes: int = 0,
        byzantine_behavior: str = "tip-spam",
        plane_factory: Optional[Callable[[Simulator], Network]] = None,
    ) -> None:
        self.params = params or NanoParams(work_difficulty=1)
        self.plane_factory = plane_factory
        self.name = self.params.name
        self.node_count = node_count
        self.representative_count = representative_count
        self.link_params = link_params or LinkParams()
        self.seed = seed
        self.processing_tps = processing_tps
        self.prune_interval_s = prune_interval_s
        self.byzantine_nodes = byzantine_nodes
        self.byzantine_behavior = byzantine_behavior
        self.prune_stats: List[LivePruneStats] = []
        self.testbed: Optional[NanoTestbed] = None
        self.keys: List[KeyPair] = []
        self._submit_times: Dict[Hash, float] = {}
        self._stats = LedgerStats()
        self.supply = 10**15

    def setup(self, accounts: int, initial_balance: int) -> None:
        self.testbed = build_nano_testbed(
            node_count=self.node_count,
            representative_count=self.representative_count,
            supply=self.supply,
            params=self.params,
            link_params=self.link_params,
            seed=self.seed,
            processing_tps=self.processing_tps,
            network_factory=self.plane_factory,
        )
        self.keys = fund_accounts(
            self.testbed, accounts, initial_balance, settle_time=2.0
        )
        for node in self.testbed.nodes[: self.byzantine_nodes]:
            # Conflicting-tip spam (the DAG family): marked replicas are
            # the injection points :meth:`submit_tip_spam` floods from.
            node.is_byzantine = True
            self.testbed.network.tracer.emit(
                self.testbed.simulator.now, BYZANTINE, src=node.node_id,
                reason=self.byzantine_behavior)
        if self.prune_interval_s is not None:
            # Live *current*-node pruning (Section V-B): trim every
            # replica to heads + unsettled sends on a periodic tick.
            for node in self.testbed.nodes:
                _, stats = attach_lattice_pruning(node, self.prune_interval_s)
                self.prune_stats.append(stats)

    def submit(self, event: PaymentEvent) -> Optional[Hash]:
        assert self.testbed is not None
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
        self._stats.entries_created += 1
        self._submit_times[block.block_hash] = self.now()
        return block.block_hash

    def advance(self, duration_s: float) -> None:
        assert self.testbed is not None
        sim = self.testbed.simulator
        sim.run(until=sim.now + duration_s)

    def now(self) -> float:
        return self.testbed.simulator.now if self.testbed else 0.0

    def is_confirmed(self, entry: Hash) -> bool:
        assert self.testbed is not None
        return self.testbed.nodes[0].is_confirmed(entry)

    def balance(self, account_index: int) -> int:
        assert self.testbed is not None
        return self.testbed.nodes[0].balance(self.keys[account_index].address)

    def serialized_size(self) -> int:
        assert self.testbed is not None
        return self.testbed.nodes[0].lattice.serialized_size()

    def stats(self) -> LedgerStats:
        assert self.testbed is not None
        observer = self.testbed.nodes[0]
        self._stats.forks_observed = sum(
            n.stats.forks_seen for n in self.testbed.nodes
        )
        self._stats.entries_confirmed = sum(
            1 for h in self._submit_times if observer.is_confirmed(h)
        )
        latencies: List[float] = []
        for block_hash, submitted in self._submit_times.items():
            confirmed_at = observer.confirmation_times.get(block_hash)
            if confirmed_at is not None:
                latencies.append(max(0.0, confirmed_at - submitted))
        self._stats.confirmation_latencies_s = latencies
        self._stats.extra["dag_blocks"] = float(observer.lattice.block_count())
        self._stats.extra["elections"] = float(observer.elections.elections_started)
        self._stats.extra.update(aggregate_layer_counters(self.testbed.nodes))
        return self._stats

    # ------------------------------------------- in-loop check capabilities

    def deployment(self) -> Optional[DeploymentView]:
        if self.testbed is None:
            return None
        return DeploymentView(
            simulator=self.testbed.simulator,
            network=self.testbed.network,
            nodes=self.testbed.nodes,
        )

    def audit(self) -> Optional[AuditReport]:
        if self.testbed is None:
            return None
        return audit_lattice(self.testbed.nodes, expected_supply=self.supply)

    def state_digest(self) -> str:
        assert self.testbed is not None
        digest = hashlib.sha256()
        for node in self.testbed.nodes:
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
        assert self.testbed is not None
        sender = self.keys[event.sender_index]
        wallet = self.testbed.node_for(sender.address)
        chain = wallet.lattice.chain(sender.address)
        if chain is None or chain.balance < event.amount:
            return []
        head = chain.head
        decoy = self.keys[(event.recipient_index + 1) % len(self.keys)]
        honest = make_send(
            sender, previous=head,
            destination=self.keys[event.recipient_index].address,
            amount=event.amount,
            work_difficulty=self.params.work_difficulty,
        )
        conflicting = make_send(
            sender, previous=head, destination=decoy.address,
            amount=event.amount,
            work_difficulty=self.params.work_difficulty,
        )
        nodes = self.testbed.nodes
        node_a = nodes[event.sender_index % len(nodes)]
        node_b = nodes[(event.sender_index + 1) % len(nodes)]
        for node, block in ((node_a, honest), (node_b, conflicting)):
            message = Message(
                kind=MSG_NANO_BLOCK,
                payload=block,
                size_bytes=block.size_bytes,
                dedup_key=block.block_hash,
            )
            # Ingest at the victim replica, then flood from it so the
            # rest of the network (and its representatives) see the
            # conflict and an election resolves it.
            node.deliver("fuzz-adversary", message)
            node.broadcast(message)
        self._stats.entries_created += 1
        self._submit_times[honest.block_hash] = self.now()
        return [honest.block_hash, conflicting.block_hash]

    def submit_tip_spam(self, event: PaymentEvent, fanout: int = 3) -> List[Hash]:
        """Conflicting-tip spam: ``fanout`` mutually conflicting send
        blocks claiming one predecessor, each injected at a different
        replica (Byzantine-marked replicas first) and flooded from
        there.  A wider version of the double-spend fork: every pair
        conflicts, so elections must collapse ``fanout`` tips to at most
        one survivor everywhere."""
        assert self.testbed is not None
        if fanout < 2:
            return self.submit_double_spend(event)
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
        nodes = self.testbed.nodes
        spam_origins = [n for n in nodes if n.is_byzantine] or nodes
        for i, block in enumerate(blocks):
            node = spam_origins[(event.sender_index + i) % len(spam_origins)]
            message = Message(
                kind=MSG_NANO_BLOCK,
                payload=block,
                size_bytes=block.size_bytes,
                dedup_key=block.block_hash,
            )
            node.deliver("fuzz-adversary", message)
            node.broadcast(message)
        self._stats.entries_created += 1
        self._submit_times[blocks[0].block_hash] = self.now()
        return [b.block_hash for b in blocks]

    def inject_supply_corruption(self, amount: int) -> bool:
        """Park phantom value in one replica's pending table — the
        seeded violation the in-loop audit must catch."""
        if self.testbed is None:
            return False
        lattice = self.testbed.nodes[0].lattice
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
        propose_delay_s: float = 0.25,
        max_batch: int = 16,
        byzantine_nodes: int = 0,
        byzantine_behavior: str = "equivocate",
        quorum_f_override: Optional[int] = None,
    ) -> None:
        self.name = "hotstuff"
        self.node_count = node_count
        self.link_params = link_params or LinkParams()
        self.seed = seed
        self.view_timeout_s = view_timeout_s
        self.propose_delay_s = propose_delay_s
        self.max_batch = max_batch
        self.byzantine_nodes = byzantine_nodes
        self.byzantine_behavior = byzantine_behavior
        self.quorum_f_override = quorum_f_override
        self.simulator: Optional[Simulator] = None
        self.network: Optional[Network] = None
        self.nodes: List[BftNode] = []
        self._accounts = 0
        self._expected_supply = 0
        self._payment_seq = 0
        self._submit_times: Dict[Hash, float] = {}
        self._stats = LedgerStats()

    # ----------------------------------------------------------------- setup

    def setup(self, accounts: int, initial_balance: int) -> None:
        self.simulator = Simulator(seed=self.seed)
        self.network = Network(self.simulator)
        self._accounts = accounts
        self._expected_supply = accounts * initial_balance
        byz_ids = {f"n{i}" for i in range(self.byzantine_nodes)}

        def factory(nid: str) -> BftNode:
            byzantine = nid in byz_ids
            return BftNode(
                nid,
                view_timeout_s=self.view_timeout_s,
                propose_delay_s=self.propose_delay_s,
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
                self.network.tracer.emit(
                    self.simulator.now, BYZANTINE, src=node.node_id,
                    reason=self.byzantine_behavior)
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
        self._stats.entries_created += 1
        self._submit_times[payment_id] = self.now()
        return payment_id

    # ----------------------------------------------------------------- clock

    def advance(self, duration_s: float) -> None:
        assert self.simulator is not None
        # Never run unbounded: the view pacemaker re-arms a timeout every
        # view, so a BFT deployment always has future events.
        self.simulator.run(until=self.simulator.now + duration_s)

    def now(self) -> float:
        return self.simulator.now if self.simulator else 0.0

    # ---------------------------------------------------------------- reads

    def is_confirmed(self, entry: Hash) -> bool:
        return entry in self.nodes[0].committed_payments

    def balance(self, account_index: int) -> int:
        return self.nodes[0].balances.get(account_index, 0)

    def serialized_size(self) -> int:
        return sum(b.size_bytes for b in self.nodes[0].blocks.values())

    def stats(self) -> LedgerStats:
        observer = self.nodes[0]
        self._stats.entries_confirmed = sum(
            1 for pid in self._submit_times
            if pid in observer.committed_payments
        )
        latencies: List[float] = []
        for pid, submitted in self._submit_times.items():
            committed_at = observer.committed_payments.get(pid)
            if committed_at is not None:
                latencies.append(max(0.0, committed_at - submitted))
        self._stats.confirmation_latencies_s = latencies
        self._stats.forks_observed = sum(
            n.stats.equivocations_detected for n in self.nodes)
        self._stats.extra["committed_blocks"] = float(
            observer.committed_height)
        self._stats.extra["view"] = float(
            max(n.current_view for n in self.nodes))
        self._stats.extra.update(aggregate_layer_counters(self.nodes))
        return self._stats

    # ------------------------------------------- in-loop check capabilities

    def deployment(self) -> Optional[DeploymentView]:
        if self.simulator is None:
            return None
        return DeploymentView(
            simulator=self.simulator, network=self.network, nodes=self.nodes
        )

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
