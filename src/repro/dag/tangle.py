"""An IOTA-style tangle (paper footnote 1: "Other DAG approaches are
IOTA and Byteball").

Where Nano gives every *account* its own chain, the tangle is one shared
DAG: each new transaction approves two previous transactions (its
*trunk* and *branch*), contributing its weight to everything it directly
or indirectly approves.  Confirmation confidence is structural — the
probability that a freshly selected tip references your transaction —
rather than voted (Nano) or depth-based (blockchain), which makes the
tangle a useful third point on the paper's Section IV comparison axis.

Implemented here: transaction issuance with per-transaction anti-spam
PoW, uniform and biased-random-walk (MCMC, parameter alpha) tip
selection, cumulative weight, and sampling-based confirmation
confidence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from repro.common.memo import cached
from typing import Dict, List, Optional, Set, Tuple

from repro.common.encoding import encode_bytes, encode_uint
from repro.common.errors import UnknownParentError, ValidationError
from repro.common.types import Hash
from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyPair, verify_signature
from repro.crypto.pow import check_antispam, solve_antispam


@dataclass(frozen=True)
class TangleTransaction:
    """One site of the tangle: a payload approving two predecessors."""

    trunk: Hash
    branch: Hash
    payload: bytes
    timestamp: float
    public_key: bytes = b""
    signature: bytes = b""
    work: int = 0

    def _signed_body(self) -> bytes:
        return (
            bytes(self.trunk)
            + bytes(self.branch)
            + encode_bytes(self.payload)
            + encode_uint(int(self.timestamp * 1000), 8)
        )

    @cached
    def tx_hash(self) -> Hash:
        return sha256(self._signed_body())

    def serialize(self) -> bytes:
        return self._signed_body() + self.signature.ljust(64, b"\x00") + encode_uint(
            self.work, 8
        )

    @property
    def size_bytes(self) -> int:
        return len(self.serialize())

    @property
    def is_genesis(self) -> bool:
        return self.trunk.is_zero() and self.branch.is_zero()

    def verify_signature(self) -> bool:
        return verify_signature(self.public_key, bytes(self.tx_hash), self.signature)

    def verify_work(self, difficulty: float) -> bool:
        return check_antispam(bytes(self.trunk) + bytes(self.branch), self.work, difficulty)


def issue_transaction(
    keypair: KeyPair,
    trunk: Hash,
    branch: Hash,
    payload: bytes,
    timestamp: float,
    work_difficulty: Optional[float] = None,
) -> TangleTransaction:
    """Create a signed, work-stamped transaction approving two parents."""
    unsigned = TangleTransaction(
        trunk=trunk, branch=branch, payload=payload, timestamp=timestamp
    )
    signature = keypair.sign(bytes(unsigned.tx_hash))
    work = (
        solve_antispam(bytes(trunk) + bytes(branch), work_difficulty)
        if work_difficulty is not None
        else 0
    )
    return TangleTransaction(
        trunk=trunk,
        branch=branch,
        payload=payload,
        timestamp=timestamp,
        public_key=keypair.public_key,
        signature=signature,
        work=work,
    )


class Tangle:
    """The shared DAG with tip selection and confirmation confidence."""

    def __init__(self, work_difficulty: float = 1.0) -> None:
        self.work_difficulty = work_difficulty
        self._txs: Dict[Hash, TangleTransaction] = {}
        self._approvers: Dict[Hash, List[Hash]] = {}
        self._tips: Set[Hash] = set()
        self.genesis_hash: Optional[Hash] = None

    # --------------------------------------------------------------- genesis

    def create_genesis(self, keypair: KeyPair) -> TangleTransaction:
        if self.genesis_hash is not None:
            raise ValidationError("tangle already has a genesis")
        genesis = issue_transaction(
            keypair, Hash.zero(), Hash.zero(), b"genesis", 0.0, work_difficulty=None
        )
        self._txs[genesis.tx_hash] = genesis
        self._approvers[genesis.tx_hash] = []
        self._tips = {genesis.tx_hash}
        self.genesis_hash = genesis.tx_hash
        return genesis

    # ----------------------------------------------------------------- reads

    def __contains__(self, tx_hash: Hash) -> bool:
        return tx_hash in self._txs

    def __len__(self) -> int:
        return len(self._txs)

    def transaction(self, tx_hash: Hash) -> TangleTransaction:
        return self._txs[tx_hash]

    def tips(self) -> List[Hash]:
        """Transactions not yet approved by anyone."""
        return sorted(self._tips)  # sorted for determinism

    def approvers(self, tx_hash: Hash) -> List[Hash]:
        return list(self._approvers.get(tx_hash, []))

    def serialized_size(self) -> int:
        return sum(tx.size_bytes for tx in self._txs.values())

    # -------------------------------------------------------------- mutation

    def attach(self, tx: TangleTransaction) -> None:
        """Validate and insert a transaction."""
        if self.genesis_hash is None:
            raise ValidationError("create the genesis first")
        if tx.tx_hash in self._txs:
            raise ValidationError(f"duplicate transaction {tx.tx_hash.short()}")
        if tx.is_genesis:
            raise ValidationError("only one genesis allowed")
        for parent in (tx.trunk, tx.branch):
            if parent not in self._txs:
                raise UnknownParentError(
                    f"approved transaction {parent.short()} is unknown"
                )
        if not tx.verify_signature():
            raise ValidationError("invalid signature")
        if self.work_difficulty > 1 and not tx.verify_work(self.work_difficulty):
            raise ValidationError("insufficient anti-spam work")

        self._txs[tx.tx_hash] = tx
        self._approvers[tx.tx_hash] = []
        for parent in {tx.trunk, tx.branch}:
            self._approvers[parent].append(tx.tx_hash)
            self._tips.discard(parent)
        self._tips.add(tx.tx_hash)

    # --------------------------------------------------------------- weights

    def cumulative_weight(self, tx_hash: Hash) -> int:
        """Own weight plus the weight of everything approving this tx —
        the tangle's security metric (more approvers = harder to drop)."""
        if tx_hash not in self._txs:
            raise UnknownParentError(f"unknown transaction {tx_hash.short()}")
        seen: Set[Hash] = set()
        stack = [tx_hash]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._approvers[current])
        return len(seen)

    def past_cone(self, tx_hash: Hash) -> Set[Hash]:
        """Everything this transaction directly or indirectly approves."""
        seen: Set[Hash] = set()
        stack = [tx_hash]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            tx = self._txs[current]
            if not tx.is_genesis:
                stack.extend([tx.trunk, tx.branch])
        return seen

    # ----------------------------------------------------------- tip choice

    def select_tips_uniform(self, rng: random.Random) -> Tuple[Hash, Hash]:
        """Uniform random tip selection (IOTA's simplest strategy)."""
        tips = self.tips()
        return rng.choice(tips), rng.choice(tips)

    def select_tips_mcmc(
        self, rng: random.Random, alpha: float = 0.01, walkers: int = 2
    ) -> Tuple[Hash, Hash]:
        """Biased random walks from genesis toward tips.

        At each step the walk moves to an approver with probability
        proportional to ``exp(alpha * cumulative_weight)``; higher alpha
        concentrates selection on the heavy subtangle (more secure, but
        leaves honest latecomer tips behind — the trade-off the A4 bench
        measures).
        """
        import math

        assert self.genesis_hash is not None
        weights = self._all_cumulative_weights()

        def walk() -> Hash:
            current = self.genesis_hash
            while True:
                approvers = self._approvers[current]
                if not approvers:
                    return current
                if len(approvers) == 1:
                    current = approvers[0]
                    continue
                exps = [math.exp(alpha * weights[a]) for a in approvers]
                total = sum(exps)
                point = rng.random() * total
                cumulative = 0.0
                for candidate, weight in zip(approvers, exps):
                    cumulative += weight
                    if point < cumulative:
                        current = candidate
                        break

        selections = [walk() for _ in range(max(walkers, 2))]
        return selections[0], selections[1]

    def _all_cumulative_weights(self) -> Dict[Hash, int]:
        """Cumulative weight of every site in one reverse-topological pass."""
        # Future-set sizes computed by propagating approver sets is
        # O(n^2) worst case; fine at simulation scale.
        order = self._topological_order()
        future: Dict[Hash, Set[Hash]] = {h: set() for h in order}
        for tx_hash in reversed(order):
            for approver in self._approvers[tx_hash]:
                future[tx_hash].add(approver)
                future[tx_hash] |= future[approver]
        return {h: len(f) + 1 for h, f in future.items()}

    def _topological_order(self) -> List[Hash]:
        assert self.genesis_hash is not None
        in_degree: Dict[Hash, int] = {}
        for tx_hash, tx in self._txs.items():
            if tx.is_genesis:
                in_degree[tx_hash] = 0
            else:
                in_degree[tx_hash] = len({tx.trunk, tx.branch})
        ready = [h for h, d in in_degree.items() if d == 0]
        order: List[Hash] = []
        while ready:
            current = ready.pop()
            order.append(current)
            for approver in self._approvers[current]:
                tx = self._txs[approver]
                in_degree[approver] -= 1
                if in_degree[approver] == 0:
                    ready.append(approver)
        if len(order) != len(self._txs):  # pragma: no cover - acyclic by construction
            raise ValidationError("tangle contains a cycle")
        return order

    # ------------------------------------------------------------ confidence

    def confirmation_confidence(
        self, tx_hash: Hash, rng: random.Random, samples: int = 50, alpha: float = 0.01
    ) -> float:
        """Fraction of sampled tip selections whose past cone contains
        ``tx_hash`` — IOTA's confirmation confidence."""
        if tx_hash not in self._txs:
            raise UnknownParentError(f"unknown transaction {tx_hash.short()}")
        hits = 0
        for _ in range(samples):
            tip, _ = self.select_tips_mcmc(rng, alpha=alpha)
            if tx_hash in self.past_cone(tip):
                hits += 1
        return hits / samples

    def left_behind_tips(self, reference_weight: int = 3) -> List[Hash]:
        """Tips whose cumulative weight stayed at 1 while the tangle grew —
        candidates for re-attachment (the 'lazy tip' problem)."""
        weights = self._all_cumulative_weights()
        heavy = max(weights.values())
        return [
            h for h in self._tips if weights[h] == 1 and heavy >= reference_weight
        ]
