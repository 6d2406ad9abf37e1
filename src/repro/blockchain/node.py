"""A full blockchain network node.

Ties together the chain store, the materialized state (UTXO set or
account trie), the mempool, gossip, and block production.  One class
serves both reference implementations: ``params.uses_gas`` selects the
Ethereum-style account model, otherwise the Bitcoin-style UTXO model.

Block production comes in two flavours matching Section III:

* :meth:`start_pow_mining` — Poisson-process PoW mining with a hash-power
  share (leader election by lottery);
* :class:`PosSlotDriver` — fixed slots with a stake-weighted proposer
  lottery (PoS), defined at module scope because it coordinates the whole
  validator set, not one node.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import (
    DoubleSpendError,
    GenesisMismatchError,
    ReproError,
    ValidationError,
)
from repro.common.types import Address, Hash, TxId
from repro.crypto.pow import MAX_TARGET
from repro.net.message import Message
from repro.protocol import ConsensusEngine, ProtocolNode
from repro.blockchain.block import AnyTransaction, Block, assemble_block
from repro.blockchain.chain import ChainStore, ReorgResult
from repro.blockchain.mempool import Mempool, MempoolLimits
from repro.blockchain.miner import SimulatedMiner
from repro.blockchain.params import ChainParams
from repro.blockchain.receipts import receipts_root
from repro.blockchain.state import AccountState
from repro.blockchain.transaction import (
    AccountTransaction,
    Transaction,
    TxOutput,
    make_coinbase,
)
from repro.blockchain.utxo import UTXOSet
from repro.blockchain.validation import (
    BlockUndo,
    apply_block,
    revert_block,
    validate_block_structure,
)

MSG_TX = "tx"
MSG_BLOCK = "block"


@dataclass
class NodeStats:
    """Counters for one node's view of the protocol."""

    blocks_accepted: int = 0
    blocks_rejected: int = 0
    reorgs: int = 0
    orphaned_blocks: int = 0
    orphaned_transactions: int = 0
    txs_seen: int = 0
    validation_bytes: int = 0  # bytes of block bodies validated (load metric)
    blocks_withheld: int = 0   # selfish mining: blocks kept private
    private_releases: int = 0  # selfish mining: private-chain publications


class ChainConsensus(ConsensusEngine):
    """Heaviest-chain fork choice over a block tree (Section III-A).

    A block whose parent has not arrived parks in the intake layer under
    the parent id; :meth:`ChainStore.add_block` refuses an unknown
    parent rather than holding the block itself.  Duplicate detection
    is left to ``ChainStore.add_block`` so repeated gossip stays a
    silent not-accepted.
    """

    paradigm = "blockchain"

    def __init__(self, node: "BlockchainNode") -> None:
        self._node = node

    def artifact_key(self, block: Block) -> Hash:
        return block.block_id

    def missing_dependency(self, block: Block) -> Optional[Hash]:
        chain = self._node.chain
        if block.block_id in chain:
            return None  # duplicate: integrate reports not-accepted
        parent = block.parent_id
        if not parent.is_zero() and parent not in chain:
            return parent
        return None

    def integrate(self, block: Block) -> bool:
        return self._node._integrate_block(block)


class BlockchainNode(ProtocolNode):
    """A validating full node for either reference implementation."""

    def __init__(
        self,
        node_id: str,
        params: ChainParams,
        genesis: Block,
        genesis_allocations: Optional[Dict[Address, int]] = None,
        mempool_limits: Optional[MempoolLimits] = None,
    ) -> None:
        super().__init__(node_id)
        self.params = params
        self.chain = ChainStore(genesis)
        self.mempool = Mempool(fee_oracle=self._fee_of, limits=mempool_limits)
        self.stats = NodeStats()
        self.consensus = ChainConsensus(self)
        self._tx_blocks: Dict[TxId, Hash] = {}  # txid -> containing main-chain block
        self._miner: Optional[SimulatedMiner] = None
        self._mining_epoch = 0
        # Byzantine family "selfish" (wired by the adapters/deploy
        # factory): withhold mined blocks, release against competitors.
        self.selfish_mining = False
        self._private_blocks: List[Block] = []
        self.byz_rng: Optional[random.Random] = None
        self._entry_block_id: Optional[Hash] = None
        self._entry_result: Optional[ReorgResult] = None

        if params.uses_gas:
            self.state: Optional[AccountState] = AccountState()
            self.utxo: Optional[UTXOSet] = None
            for address, amount in (genesis_allocations or {}).items():
                self.state.credit(address, amount)
            self._state_roots: Dict[Hash, Hash] = {
                genesis.block_id: self.state.root_hash
            }
            # The last account template: (parent state root, body Merkle
            # root, proposer) -> the post-state root it read.
            self._template_post: Optional[Tuple[Tuple[Hash, Hash, Address], Hash]] = None
        else:
            self.state = None
            self.utxo = UTXOSet()
            # Genesis is never reverted, so it keeps no undo.
            self._undo: Dict[Hash, BlockUndo] = {}
            for tx in genesis.transactions:
                self.utxo.apply_transaction(tx)
                self._tx_blocks[tx.txid] = genesis.block_id

    def _fee_of(self, tx: Transaction) -> int:
        """Mempool fee oracle: implied fee against the current UTXO view.

        Transactions spending in-mempool (not yet mined) outputs can't be
        priced yet; they rank at zero until their parents confirm.
        """
        if self.utxo is None:
            return 0
        try:
            return self.utxo.fee(tx)
        except ReproError:
            return 0

    # ------------------------------------------------------------------ API

    @property
    def head(self) -> Block:
        return self.chain.head

    def balance(self, address: Address) -> int:
        if self.utxo is not None:
            return self.utxo.balance(address)
        assert self.state is not None
        return self.state.balance(address)

    def submit_transaction(self, tx: AnyTransaction) -> bool:
        """Inject a locally created transaction and gossip it.

        Goes out through the transport layer: a wallet transaction
        created while its node is offline is republished on reconnect.
        """
        if not self._admit_transaction(tx):
            return False
        self.transport.publish(
            tx,
            Message(kind=MSG_TX, payload=tx, size_bytes=tx.size_bytes, dedup_key=tx.txid),
        )
        return True

    def confirmations(self, txid: TxId) -> int:
        """Main-chain confirmations of the block containing ``txid``."""
        block_id = self._tx_blocks.get(txid)
        if block_id is None:
            return 0
        return self.chain.confirmations(block_id)

    def is_confirmed(self, txid: TxId) -> bool:
        """Confirmed per the implementation's depth convention (Section
        IV-A: 6 for Bitcoin, 11 for Ethereum)."""
        return self.confirmations(txid) >= self.params.confirmation_depth

    # -------------------------------------------------------------- messages

    def handle_message(self, sender_id: str, message: Message) -> None:
        if message.kind == MSG_TX:
            self._admit_transaction(message.payload)
        elif message.kind == MSG_BLOCK:
            # A peer's invalid block is counted in ``blocks_rejected``
            # and dropped; it must not stop this replica.
            self.ingest_quietly(message.payload)
            if self.selfish_mining and self._private_blocks:
                # A competitor published: the selfish miner answers with
                # its private chain (Eyal & Sirer's race).
                self._maybe_release_private()

    def _admit_transaction(self, tx: AnyTransaction) -> bool:
        self.stats.txs_seen += 1
        if tx.txid in self._tx_blocks:
            return False  # already on (our view of) the chain
        if isinstance(tx, AccountTransaction):
            if not tx.verify_signature():
                return False
        elif isinstance(tx, Transaction):
            if (tx.is_coinbase or self._repeats_an_input(tx)
                    or self._spends_settled_output(tx)
                    or not tx.verify_input_signatures()):
                return False
        return self.mempool.add(tx)

    def _spends_settled_output(self, tx: Transaction) -> bool:
        """An input whose parent is on the chain but whose output is not
        unspent there: the chain already settled that outpoint, so no
        block can ever carry ``tx``."""
        utxo = self.utxo
        if utxo is None:
            return False
        for tx_input in tx.inputs:
            if (tx_input.outpoint not in utxo
                    and tx_input.prev_txid in self._tx_blocks):
                return True
        return False

    @staticmethod
    def _repeats_an_input(tx: Transaction) -> bool:
        """An outpoint listed twice: no UTXO set spends it twice, so no
        block can carry ``tx`` (Bitcoin Core's ``bad-txns-inputs-duplicate``)."""
        return len({tx_input.outpoint for tx_input in tx.inputs}) != len(tx.inputs)

    # ---------------------------------------------------------------- blocks

    def receive_block(self, block: Block) -> ReorgResult:
        """Validate and integrate one block, updating state and mempool.

        Runs the shared stack pipeline (:meth:`ProtocolNode.ingest`):
        a block whose parent is unknown parks in the intake layer and
        reports ``block_accepted=False``; integrating a parent retries
        its parked children.  The returned :class:`ReorgResult` covers
        ``block`` itself — cascaded children integrate with their own
        results.
        """
        prev_id, prev_result = self._entry_block_id, self._entry_result
        self._entry_block_id, self._entry_result = block.block_id, None
        try:
            self.ingest(block)
            result = self._entry_result
        finally:
            self._entry_block_id, self._entry_result = prev_id, prev_result
        return result if result is not None else ReorgResult(block_accepted=False)

    def _integrate_block(self, block: Block) -> bool:
        try:
            validate_block_structure(block, self.params)
        except ValidationError:
            self.stats.blocks_rejected += 1
            raise
        self.stats.validation_bytes += block.body_size_bytes
        result = self.chain.add_block(block)
        if block.block_id == self._entry_block_id:
            self._entry_result = result
        if not result.block_accepted:
            return False
        self.stats.blocks_accepted += 1
        if result.is_reorg:
            self.stats.reorgs += 1
            self.stats.orphaned_blocks += len(result.rolled_back)
        if result.extended_main:
            self._update_state(result)
            self._mining_epoch += 1
            self._reschedule_mining()
        return True

    def _update_state(self, result: ReorgResult) -> None:
        """Roll back orphaned blocks, apply adopted ones, fix the mempool."""
        applied = result.applied
        error: Optional[ReproError] = None
        # What each orphaned block carried: a UTXO block's undo keeps its
        # transactions after ``prune_chain`` has emptied the stored body.
        orphaned = {block.block_id: block.transactions for block in result.rolled_back}
        if self.utxo is not None:
            for block in reversed(result.rolled_back):
                undo = self._undo.pop(block.block_id, None)
                if undo is not None:
                    revert_block(undo, self.utxo)
                    orphaned[block.block_id] = undo[0]
        elif result.rolled_back:
            fork_parent = self.chain.block_at_height(applied[0].height - 1)
            self.state.rollback_to(self._state_roots[fork_parent.block_id])
        for index, block in enumerate(applied):
            try:
                if self.utxo is not None:
                    # Every pooled tx had its signatures checked here.
                    self._undo[block.block_id] = apply_block(
                        block, self.utxo, self.params, self.mempool)
                else:
                    self._apply_account_block(block)
            except ReproError as exc:
                # Fork choice adopted the block before its body could be
                # checked against its parent's state: keep what applied
                # cleanly and un-connect the rest below.
                if self.state is not None:
                    self.state.rollback_to(self._state_roots[block.parent_id])
                error, applied = exc, applied[:index]
                break

        for transactions in orphaned.values():
            for tx in transactions:
                self._tx_blocks.pop(tx.txid, None)
        for block in applied:
            for tx in block.transactions:
                self._tx_blocks[tx.txid] = block.block_id
        # Only what the new chain can still carry goes back: not a
        # transaction it holds, nor one spending an output it settled.
        # Readmitting before ``remove_included`` lets its conflict sweep
        # drop an account orphan whose nonce the new chain used.
        survivors = [tx for transactions in orphaned.values() for tx in transactions
                     if tx.txid not in self._tx_blocks
                     and not self._spends_settled_output(tx)]
        self.mempool.readmit(survivors)
        for block in applied:
            self.mempool.remove_included(block.transactions)
        self.stats.orphaned_transactions += sum(tx.txid in self.mempool for tx in survivors)

        if error is not None:
            rejected = result.applied[len(applied)]
            self.stats.blocks_rejected += 1
            self.stats.blocks_accepted -= 1  # counted when fork choice took it
            fallback = self.chain.invalidate(rejected.block_id)
            if fallback.extended_main:
                self._update_state(fallback)
            raise error

    def _apply_account_block(self, block: Block) -> None:
        """Execute ``block`` on its parent's state, or adopt the post-state
        of the template this node built from the same parent state, body
        and proposer (execution is a function of those three)."""
        assert self.state is not None
        miner = block.header.proposer or Address.zero()
        key = (self.state.root_hash, block.header.merkle_root, miner)
        if self._template_post is not None and self._template_post[0] == key:
            self.state.rollback_to(self._template_post[1])
        else:
            account_txs = [
                tx for tx in block.transactions if isinstance(tx, AccountTransaction)
            ]
            self.state.apply_block_transactions(
                account_txs, miner, self.params.block_reward
            )
        root = self.state.root_hash
        if not block.header.state_root.is_zero() and root != block.header.state_root:
            raise ValidationError(
                f"block {block.block_id.short()} state root mismatch"
            )
        self._state_roots[block.block_id] = root

    # ------------------------------------------------------------- catch-up

    def _genesis_state(self) -> Tuple[Hash, Optional[Hash]]:
        """Genesis block id plus, on account chains, the state root the
        genesis allocations produced (a UTXO genesis state *is* its
        block's transactions)."""
        genesis_id = self.chain.genesis.block_id
        if self.state is None:
            return genesis_id, None
        return genesis_id, self._state_roots[genesis_id]

    def _require_shared_genesis(self, peer: "BlockchainNode") -> None:
        """Refuse to join a peer whose blocks could never validate here:
        replayed onto another genesis state, every one would be swallowed
        as a ``ReproError`` or parked, and the join would report 0."""
        if self._genesis_state() != peer._genesis_state():
            raise GenesisMismatchError(
                f"{self.node_id} cannot sync from {peer.node_id}: their "
                "genesis states differ (was the joiner built without "
                "the chain's genesis_allocations?)")

    def sync_from(self, peer: "BlockchainNode") -> int:
        """Adopt main-chain blocks this replica is missing from a peer.

        Real clients run headers-first initial block download / catch-up
        after a partition; here the peer's main chain is replayed through
        normal validation (``receive_block``), so fork choice and state
        updates apply as if the blocks had arrived by gossip.  Returns
        the number of blocks adopted.
        """
        self._require_shared_genesis(peer)
        return self._replay(peer.chain.main_chain()[1:])

    def _replay(self, blocks: List[Block]) -> int:
        """Run blocks this replica lacks through full validation; returns
        how many it accepted."""
        adopted = 0
        for block in blocks:
            if block.block_id in self.chain:
                continue
            try:
                result = self.receive_block(block)
            except ReproError:
                continue
            if result.block_accepted:
                adopted += 1
        return adopted

    def state_sync_from(
        self, peer: "BlockchainNode", keep_depth: Optional[int] = None
    ) -> int:
        """Catch up from a checkpoint instead of replaying history.

        Section V-A's fast sync on a live node: download every header,
        the state at a pivot (head − ``keep_depth``) and only the bodies
        above it.  On a UTXO chain the state is the peer's UTXO set.  On
        an account chain it is the trie under the pivot header's
        ``state_root``; every node is checked against its content address
        before any header is taken, and the bodies above the pivot are
        replayed through :meth:`receive_block`, so each later root is
        checked too.  The pivot is cemented.  This is the only way to
        join a *pruned* peer, whose old bodies are gone.

        Raises :class:`PrunedHistoryError` when the peer no longer stores
        the pivot state and :class:`ValidationError` for a snapshot node
        that is missing or altered; either way this replica is untouched.
        Returns the number of blocks adopted.
        """
        self._require_shared_genesis(peer)
        from repro.storage.pruning import DEFAULT_KEEP_DEPTH

        depth = DEFAULT_KEEP_DEPTH if keep_depth is None else keep_depth
        pivot = max(peer.chain.height - depth, 0)
        blocks = peer.chain.main_chain()
        pivot_block = blocks[pivot]
        if self.utxo is not None:
            wire_bytes = peer.utxo.serialized_size_bytes()
        elif pivot_block.block_id in self.chain:
            wire_bytes = 0  # the pivot state is already ours
        else:
            root = pivot_block.header.state_root
            snapshot = peer.state.export_snapshot(root)
            self.state.adopt_snapshot(root, snapshot)
            self._state_roots[pivot_block.block_id] = root
            wire_bytes = sum(len(raw) for raw in snapshot.values())
        adopted = 0
        for block in blocks[1 : pivot + 1]:
            if block.block_id in self.chain:
                continue
            # Headers-only up to the pivot; bodies are never fetched (and
            # a pruned peer no longer has them anyway).
            block = Block(header=block.header, transactions=())
            wire_bytes += block.header.size_bytes
            if self.chain.add_block(block).block_accepted:
                adopted += 1
        recent = [b for b in blocks[pivot + 1 :] if b.block_id not in self.chain]
        wire_bytes += sum(block.size_bytes for block in recent)
        if self.utxo is None:
            adopted += self._replay(recent)
        else:
            for block in recent:
                self._undo[block.block_id] = peer._undo.get(block.block_id, ((), ()))
                if self.chain.add_block(block).block_accepted:
                    adopted += 1
            self.utxo = peer.utxo.snapshot()
            self._tx_blocks = dict(peer._tx_blocks)
        self.chain.cement(pivot)
        for counters in (self.transport.counters, peer.transport.counters):
            counters.state_syncs += 1
            counters.state_sync_bytes += wire_bytes
        self.revive_intake()
        self._mining_epoch += 1
        self._reschedule_mining()
        return adopted

    def layer_counters(self) -> Dict[str, float]:
        counters = super().layer_counters()
        counters.update(self.mempool.counters())
        return counters

    def announce_chain(self) -> None:
        """Gossip this replica's main chain (post-partition heads-up).

        Peers that already saw a block ignore it via gossip dedup; peers
        on the other side of a healed partition adopt the heavier branch.
        """
        for block in self.chain.main_chain()[1:]:
            self.broadcast(self._block_message(block))

    # ------------------------------------------------------------ production

    def create_block_template(
        self, timestamp: float, proposer: Address, target: int = MAX_TARGET
    ) -> Block:
        """Assemble the best block this node can mine right now."""
        if self.utxo is not None:
            return self._create_utxo_template(timestamp, proposer, target)
        return self._create_account_template(timestamp, proposer, target)

    def _create_utxo_template(
        self, timestamp: float, proposer: Address, target: int
    ) -> Block:
        utxo = self.utxo
        assert utxo is not None
        budget = (self.params.max_block_size_bytes or 10**9) - 200  # coinbase room
        # Connect each candidate on the live set, as a block connect does:
        # the set spends each input or refuses the transaction.  The
        # chosen ones are reverted, last first, before this returns.
        chosen: List[Transaction] = []
        undo: List[Tuple[TxOutput, ...]] = []
        fees = 0
        try:
            for tx in self.mempool.select_by_size(budget):
                if not isinstance(tx, Transaction):
                    continue
                try:
                    spent = utxo.apply_transaction(tx)
                except DoubleSpendError:
                    continue  # an input is unknown or already spent
                fee = sum(output.amount for output in spent) - tx.total_output()
                if fee < 0:
                    utxo.revert_transaction(tx, spent)
                    continue
                chosen.append(tx)
                undo.append(spent)
                fees += fee
        finally:
            for tx, spent in zip(reversed(chosen), reversed(undo)):
                utxo.revert_transaction(tx, spent)
        coinbase = make_coinbase(
            proposer, self.params.block_reward + fees, nonce=self.head.height + 1
        )
        return assemble_block(
            parent=self.head.header,
            transactions=[coinbase] + chosen,
            timestamp=timestamp,
            target=target,
            proposer=proposer,
        )

    def _create_account_template(
        self, timestamp: float, proposer: Address, target: int
    ) -> Block:
        assert self.state is not None
        gas_limit = self.params.initial_gas_limit or 8_000_000
        candidates = self.mempool.select_by_gas(gas_limit)
        # Execute on a scratch version to find the valid prefix and the
        # resulting roots, then roll the live state back.
        before = self.state.checkpoint()
        chosen: List[AccountTransaction] = []
        receipts = []
        for tx in candidates:
            try:
                receipt = self.state.apply_transaction(tx, proposer)
            except ReproError:
                continue
            receipts.append(receipt)
            chosen.append(tx)
        if self.params.block_reward:  # as apply_block_transactions does
            self.state.credit(proposer, self.params.block_reward)
        state_root = self.state.root_hash
        self.state.rollback_to(before)
        block = assemble_block(
            parent=self.head.header,
            transactions=chosen,
            timestamp=timestamp,
            target=target,
            state_root=state_root,
            receipts_root=receipts_root(receipts),
            proposer=proposer,
        )
        self._template_post = ((before, block.header.merkle_root, proposer), state_root)
        return block

    # ----------------------------------------------------------- PoW mining

    def start_pow_mining(self, hashrate_share: float, coinbase: Address) -> None:
        """Begin Poisson-process mining (Section III-A1 lottery)."""
        if self.network is None:
            raise RuntimeError("attach the node to a network before mining")
        sim = self.network.simulator
        self._miner = SimulatedMiner(
            coinbase_address=coinbase,
            hashrate_share=hashrate_share,
            target_interval_s=self.params.target_block_interval_s,
            rng=sim.fork_rng(f"miner:{self.node_id}"),
        )
        self._reschedule_mining()

    @property
    def miner(self) -> Optional[SimulatedMiner]:
        return self._miner

    def refresh_mining(self) -> None:
        """Re-arm the next solve with current miner rates.

        Call after changing ``hashrate_boost``/``difficulty_factor`` so
        the new rate takes effect immediately instead of at the next
        head change (exponential memorylessness makes the re-draw fair).
        """
        self._mining_epoch += 1
        self._reschedule_mining()

    def _reschedule_mining(self) -> None:
        """(Re)arm the next block-discovery event for the current head.

        Restarting the exponential draw on head change is statistically
        neutral (memorylessness) and mirrors miners switching templates.
        """
        if self._miner is None or self.network is None:
            return
        epoch = self._mining_epoch
        delay = self._miner.next_block_delay()

        def solve() -> None:
            if self._miner is None or epoch != self._mining_epoch:
                return  # stale: head moved since this draw
            self._produce_and_broadcast()

        self.network.simulator.schedule(delay, solve, label=f"mine:{self.node_id}")

    def _produce_and_broadcast(self) -> None:
        assert self._miner is not None and self.network is not None
        sim = self.network.simulator
        block = self.create_block_template(
            timestamp=sim.now, proposer=self._miner.coinbase_address
        )
        block = self._miner.make_block(
            parent=self.head.header,
            transactions=block.transactions,
            timestamp=sim.now,
            target=MAX_TARGET,
            state_root=block.header.state_root,
            receipts_root=block.header.receipts_root,
        )
        self.receive_block(block)  # bumps epoch and reschedules
        if self.selfish_mining:
            # Byzantine family "selfish": keep the block private and
            # keep mining on top of it; the release races a competitor.
            self._private_blocks.append(block)
            self.stats.blocks_withheld += 1
            return
        self.transport.publish(block, self._block_message(block))

    def _block_message(self, block: Block) -> Message:
        return Message(
            kind=MSG_BLOCK,
            payload=block,
            size_bytes=block.size_bytes,
            dedup_key=block.block_id,
        )

    def _maybe_release_private(self) -> None:
        """Release the withheld chain, or (rng-driven, stubborn-miner
        variant) hold a long lead through one more round."""
        if (len(self._private_blocks) >= 2 and self.byz_rng is not None
                and self.byz_rng.random() < 0.25):
            return
        self.release_private_blocks()

    def release_private_blocks(self) -> int:
        """Publish every withheld block still on our main chain."""
        released = 0
        for block in self._private_blocks:
            if self.chain.is_on_main_chain(block.block_id):
                self.transport.publish(block, self._block_message(block))
                released += 1
        self._private_blocks.clear()
        if released:
            self.stats.private_releases += 1
        return released

    # ------------------------------------------------------------- transport

    def retains_artifact(self, artifact: Any) -> bool:
        """Offline-queued blocks republish only while still stored;
        transactions only until (our view of) the chain includes them."""
        if isinstance(artifact, Block):
            return artifact.block_id in self.chain
        return artifact.txid not in self._tx_blocks


# --------------------------------------------------------------------------
# PoS block production
# --------------------------------------------------------------------------


class PosSlotDriver:
    """Drives PoS block production across a set of nodes (Section III-A2).

    Every ``slot_interval`` seconds the deposit contract's lottery picks a
    proposer; that validator's node builds and broadcasts the next block.
    No hashing happens — which is the entire energy argument.
    """

    def __init__(
        self,
        nodes: Dict[Address, BlockchainNode],
        validator_set,
        slot_interval_s: Optional[float] = None,
    ) -> None:
        if not nodes:
            raise ValueError("need at least one validator node")
        self.nodes = nodes
        self.validator_set = validator_set
        first = next(iter(nodes.values()))
        self.slot_interval_s = slot_interval_s or first.params.target_block_interval_s
        self.slots_run = 0
        self.proposer_history: List[Address] = []

    def start(self, simulator, until: float) -> None:
        rng = simulator.fork_rng("pos-slots")

        def slot() -> None:
            proposer = self.validator_set.select_proposer(rng)
            self.proposer_history.append(proposer)
            self.slots_run += 1
            node = self.nodes.get(proposer)
            if node is None:
                return  # proposer offline: empty slot
            block = node.create_block_template(
                timestamp=simulator.now, proposer=proposer
            )
            node.receive_block(block)
            node.transport.publish(block, node._block_message(block))

        simulator.schedule_periodic(self.slot_interval_s, slot, until=until)
