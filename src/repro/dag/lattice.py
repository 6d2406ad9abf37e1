"""The block-lattice ledger (Figure 2 of the paper).

A :class:`Lattice` is the set of all account chains plus the *pending*
table of unsettled sends.  Processing a block validates it against its
account chain, updates balances and representative weights, and detects
forks — "two transactions may claim the same predecessor causing a fork
(forks in Nano are only possible as a result of a malicious attack or bad
programming)".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.common.errors import (
    CementedBlockError,
    ForkDetectedError,
    PrunedHistoryError,
    ValidationError,
)
from repro.common.types import Address, Hash
from repro.crypto.keys import KeyPair, address_of
from repro.dag.blocks import BlockType, NanoBlock, make_open
from repro.dag.params import NanoParams
from repro.dag.representatives import RepresentativeLedger


@dataclass(frozen=True)
class PendingInfo:
    """An unsettled send awaiting its receive (Figure 3's 'S' half)."""

    source_hash: Hash
    source_account: Address
    destination: Address
    amount: int


@dataclass
class AccountChain:
    """One account's dedicated chain — "a dedicated blockchain, just for
    a single account"."""

    account: Address
    blocks: List[NanoBlock] = field(default_factory=list)

    @property
    def head(self) -> NanoBlock:
        return self.blocks[-1]

    @property
    def height(self) -> int:
        return len(self.blocks)

    @property
    def balance(self) -> int:
        return self.head.balance if self.blocks else 0

    @property
    def representative(self) -> Address:
        return self.head.representative


class Lattice:
    """All account chains, the pending table, and cementing state."""

    def __init__(self, params: Optional[NanoParams] = None) -> None:
        self.params = params or NanoParams()
        self._chains: Dict[Address, AccountChain] = {}
        self._blocks: Dict[Hash, NanoBlock] = {}
        self._pending: Dict[Hash, PendingInfo] = {}
        #: destination -> {send hash -> pending info}; kept consistent with
        #: ``_pending`` on every add/settle/rollback so the receive hot
        #: path (:meth:`pending_for`) is a dict hit, not a table scan.
        self._pending_by_dest: Dict[Address, Dict[Hash, PendingInfo]] = {}
        self._settled: Dict[Hash, Hash] = {}  # send hash -> receive hash
        self._cemented: set = set()
        #: per-account count of chain blocks already cemented (a frontier
        #: index into ``AccountChain.blocks`` — cementing is monotone)
        self._cement_frontier: Dict[Address, int] = {}
        self.reps = RepresentativeLedger()
        self.genesis_account: Optional[Address] = None
        self.forks_detected = 0

    # --------------------------------------------------------------- genesis

    def create_genesis(
        self,
        keypair: KeyPair,
        supply: int,
        representative: Optional[Address] = None,
    ) -> NanoBlock:
        """Mint the initial state — "a DAG holds a genesis transaction"."""
        if self.genesis_account is not None:
            raise ValidationError("lattice already has a genesis")
        genesis = make_open(
            keypair,
            source=Hash.zero(),
            amount=supply,
            representative=representative or keypair.address,
            work_difficulty=None,
        )
        self.genesis_account = keypair.address
        self._append(genesis)
        self.cement(genesis.block_hash)
        return genesis

    def install_genesis(self, genesis: NanoBlock) -> None:
        """Adopt an externally created genesis block (replica bootstrap).

        Every replica of the ledger starts from the same hard-coded
        genesis transaction; this verifies and installs it.
        """
        if self.genesis_account is not None:
            raise ValidationError("lattice already has a genesis")
        if genesis.block_type != BlockType.OPEN or not genesis.previous.is_zero():
            raise ValidationError("genesis must be an open block with no predecessor")
        if not genesis.verify_signature():
            raise ValidationError("genesis signature is invalid")
        self.genesis_account = genesis.account
        self._append(genesis)
        self.cement(genesis.block_hash)

    def install_frontier(
        self,
        heads: List[NanoBlock],
        pending: List[PendingInfo],
    ) -> int:
        """Adopt a checkpoint: one head block per account chain plus the
        pending table, without replaying history (live fast-sync).

        This is how a joining replica syncs from a *pruned* peer whose
        old blocks are gone — ``NanoNode.bootstrap_from`` would park the
        heads forever waiting on pruned predecessors.  Installed heads
        are cemented (they come from a checkpoint, not an election).
        All or nothing: every fresh head's signature is checked before
        any is installed.  Returns the number of chains installed.
        """
        fresh: Dict[Address, NanoBlock] = {}
        for head in heads:
            if head.account in self._chains or head.block_hash in self._blocks:
                continue  # already have (some of) this chain: keep ours
            fresh.setdefault(head.account, head)
        for head in fresh.values():
            if not head.verify_signature():
                raise ValidationError(
                    f"checkpoint head {head.block_hash.short()} has an "
                    "invalid signature"
                )
        for head in fresh.values():
            self._append(head)
            self.cement(head.block_hash)
        for info in pending:
            if info.source_hash in self._pending or info.source_hash in self._settled:
                continue
            self._pending_add(info)
        return len(fresh)

    # ---------------------------------------------------------------- reads

    def __contains__(self, block_hash: Hash) -> bool:
        return block_hash in self._blocks

    def block(self, block_hash: Hash) -> NanoBlock:
        try:
            return self._blocks[block_hash]
        except KeyError:
            raise PrunedHistoryError(f"unknown or pruned block {block_hash.short()}") from None

    def chain(self, account: Address) -> Optional[AccountChain]:
        return self._chains.get(account)

    def balance(self, account: Address) -> int:
        chain = self._chains.get(account)
        return chain.balance if chain else 0

    def account_count(self) -> int:
        return len(self._chains)

    def accounts(self) -> Iterator[Address]:
        """Every account with a chain on this replica (snapshot: safe to
        process/rollback while iterating)."""
        return iter(list(self._chains))

    def chains(self) -> Iterator[AccountChain]:
        """Every account chain on this replica (snapshot iterator)."""
        return iter(list(self._chains.values()))

    def block_count(self) -> int:
        return len(self._blocks)

    def blocks_in_arrival_order(self) -> List[NanoBlock]:
        """Every stored block, oldest append first.  A block is appended
        only after its predecessor and its source send, and a rollback
        takes a block's dependents with it, so this is a dependency order
        over whatever history this replica still holds."""
        return list(self._blocks.values())

    def pending_for(self, destination: Address) -> List[PendingInfo]:
        """Unsettled sends addressed to ``destination`` (Figure 3)."""
        bucket = self._pending_by_dest.get(destination)
        return list(bucket.values()) if bucket else []

    def pending_count(self) -> int:
        return len(self._pending)

    def is_settled(self, send_hash: Hash) -> bool:
        """A send is settled once its receive is processed (Section II-B)."""
        return send_hash in self._settled

    def is_cemented(self, block_hash: Hash) -> bool:
        return block_hash in self._cemented

    def total_supply(self) -> int:
        """Balances on chain heads plus value parked in pending sends."""
        on_chains = sum(chain.balance for chain in self._chains.values())
        in_flight = sum(p.amount for p in self._pending.values())
        return on_chains + in_flight

    def serialized_size(self) -> int:
        return sum(block.size_bytes for block in self._blocks.values())

    # ---------------------------------------------------- pending upkeep

    def _pending_add(self, info: PendingInfo) -> None:
        self._pending[info.source_hash] = info
        self._pending_by_dest.setdefault(info.destination, {})[
            info.source_hash
        ] = info

    def _pending_remove(self, source_hash: Hash) -> Optional[PendingInfo]:
        info = self._pending.pop(source_hash, None)
        if info is not None:
            bucket = self._pending_by_dest.get(info.destination)
            if bucket is not None:
                bucket.pop(source_hash, None)
                if not bucket:
                    del self._pending_by_dest[info.destination]
        return info

    # -------------------------------------------------------------- process

    def process(self, block: NanoBlock, check_work: bool = True) -> None:
        """Validate and append one block to its account chain.

        Raises :class:`ForkDetectedError` when the block claims a
        predecessor that already has a successor — the condition that
        triggers representative voting (Section III-B/IV-B).
        """
        if block.block_hash in self._blocks:
            raise ValidationError(f"duplicate block {block.block_hash.short()}")
        if check_work and not block.verify_work(self.params.work_difficulty):
            raise ValidationError(
                f"block {block.block_hash.short()} fails anti-spam work"
            )
        if not block.verify_signature():
            raise ValidationError(
                f"block {block.block_hash.short()} has an invalid signature"
            )
        if address_of(block.public_key) != block.account:
            raise ValidationError("signing key does not own the account")

        if block.block_type == BlockType.OPEN:
            self._process_open(block)
        else:
            self._process_successor(block)

    def _process_open(self, block: NanoBlock) -> None:
        if block.account in self._chains:
            existing = self._chains[block.account].blocks[0]
            self.forks_detected += 1
            raise ForkDetectedError(
                f"account {block.account.short()} already opened by "
                f"{existing.block_hash.short()}"
            )
        pending = self._pending.get(block.source)
        if pending is None:
            raise ValidationError(
                f"open block references no pending send {block.source.short()}"
            )
        if pending.destination != block.account:
            raise ValidationError("pending send addressed to a different account")
        if block.balance != pending.amount:
            raise ValidationError(
                f"open balance {block.balance} != pending amount {pending.amount}"
            )
        self._pending_remove(block.source)
        self._settled[block.source] = block.block_hash
        self._append(block)

    def _process_successor(self, block: NanoBlock) -> None:
        chain = self._chains.get(block.account)
        if chain is None:
            raise ValidationError(
                f"account {block.account.short()} has no chain (missing open block)"
            )
        head = chain.head
        if block.previous != head.block_hash:
            if block.previous in self._blocks:
                # Predecessor exists but already has a successor: a fork.
                self.forks_detected += 1
                successor = self._successor_of(block.account, block.previous)
                raise ForkDetectedError(
                    f"block {block.block_hash.short()} conflicts with "
                    f"{successor.block_hash.short()} over predecessor "
                    f"{block.previous.short()}"
                )
            # Predecessor never seen: the "transaction may not have been
            # properly broadcasted" case — caller may retry later.
            raise ValidationError(
                f"unknown predecessor {block.previous.short()} "
                f"(network ignores subsequent transactions)"
            )

        if block.block_type == BlockType.SEND:
            amount = head.balance - block.balance
            if amount <= 0:
                raise ValidationError("send must strictly decrease the balance")
            self._append(block)
            self._pending_add(PendingInfo(
                source_hash=block.block_hash,
                source_account=block.account,
                destination=block.destination,
                amount=amount,
            ))
        elif block.block_type == BlockType.RECEIVE:
            pending = self._pending.get(block.source)
            if pending is None:
                raise ValidationError(
                    f"receive references no pending send {block.source.short()}"
                )
            if pending.destination != block.account:
                raise ValidationError("pending send addressed to a different account")
            if block.balance != head.balance + pending.amount:
                raise ValidationError("receive balance arithmetic is wrong")
            self._pending_remove(block.source)
            self._settled[block.source] = block.block_hash
            self._append(block)
        elif block.block_type == BlockType.CHANGE:
            if block.balance != head.balance:
                raise ValidationError("change blocks must not move value")
            self._append(block)
        else:  # pragma: no cover - enum is exhaustive
            raise ValidationError(f"unknown block type {block.block_type}")

    def _append(self, block: NanoBlock) -> None:
        chain = self._chains.setdefault(block.account, AccountChain(block.account))
        chain.blocks.append(block)
        self._blocks[block.block_hash] = block
        self.reps.set_account(block.account, block.balance, block.representative)

    def _successor_of(self, account: Address, previous: Hash) -> NanoBlock:
        chain = self._chains[account]
        for i, blk in enumerate(chain.blocks):
            if blk.block_hash == previous:
                return chain.blocks[i + 1]
        raise ValidationError("no successor found")  # pragma: no cover

    # ------------------------------------------------------------- rollback

    def rollback(self, block_hash: Hash) -> List[NanoBlock]:
        """Remove a block and everything after it on its account chain.

        Used when an election resolves *against* a previously accepted
        block.  Cemented blocks cannot be rolled back (Section IV-B).
        Returns the removed blocks, newest first.
        """
        block = self.block(block_hash)
        if block.block_hash in self._cemented:
            raise CementedBlockError(
                f"block {block_hash.short()} is cemented and final"
            )
        chain = self._chains[block.account]
        try:
            index = next(
                i for i, b in enumerate(chain.blocks) if b.block_hash == block_hash
            )
        except StopIteration:  # pragma: no cover - guarded by self.block()
            raise ValidationError("block not on its account chain") from None

        removed: List[NanoBlock] = []
        for victim in reversed(chain.blocks[index:]):
            if victim.block_hash not in self._blocks:
                continue  # already removed by a cascading rollback below
            if victim.block_hash in self._cemented:
                raise CementedBlockError(
                    f"cannot roll back past cemented {victim.block_hash.short()}"
                )
            removed.append(victim)
            del self._blocks[victim.block_hash]
            if victim.block_type == BlockType.SEND:
                settled_receive = self._settled.pop(victim.block_hash, None)
                if settled_receive is not None and settled_receive in self._blocks:
                    # The send's value already settled onto the
                    # destination chain.  Cascade so the receive (and its
                    # successors) are rolled back too — otherwise the
                    # sender's balance is restored while the recipient
                    # keeps the credit, duplicating the amount.
                    removed.extend(self.rollback(settled_receive))
                self._pending_remove(victim.block_hash)
            elif victim.block_type in (BlockType.RECEIVE, BlockType.OPEN):
                settled_receive = self._settled.get(Hash(victim.link))
                if settled_receive == victim.block_hash:
                    del self._settled[Hash(victim.link)]
                    source = self._blocks.get(Hash(victim.link))
                    if source is not None and source.block_type == BlockType.SEND:
                        prev = self._predecessor_balance(source)
                        self._pending_add(PendingInfo(
                            source_hash=source.block_hash,
                            source_account=source.account,
                            destination=source.destination,
                            amount=prev - source.balance,
                        ))
        del chain.blocks[index:]
        if chain.blocks:
            head = chain.head
            self.reps.set_account(head.account, head.balance, head.representative)
        else:
            del self._chains[block.account]
            self.reps.remove_account(block.account)
        return removed

    def _predecessor_balance(self, block: NanoBlock) -> int:
        if block.previous.is_zero():
            return 0
        return self._blocks[block.previous].balance

    # ------------------------------------------------------------- cementing

    def cement(self, block_hash: Hash) -> None:
        """Mark a block irreversible (the planned Nano feature, Section
        IV-B).  Cementing is monotone along each chain: all predecessors
        are cemented too.

        Monotonicity makes this incremental: each chain records how far
        it is cemented, so a call walks only the blocks newly cemented
        instead of rescanning from genesis (which made repeated cementing
        quadratic in chain length)."""
        if block_hash in self._cemented:
            return
        block = self.block(block_hash)
        chain = self._chains[block.account]
        # Rollback may have shortened the chain below the recorded frontier.
        start = min(self._cement_frontier.get(block.account, 0),
                    len(chain.blocks))
        cemented = self._cemented
        for index in range(start, len(chain.blocks)):
            blk = chain.blocks[index]
            cemented.add(blk.block_hash)
            if blk.block_hash == block_hash:
                self._cement_frontier[block.account] = index + 1
                return
        self._cement_frontier[block.account] = len(chain.blocks)
