"""A Byteball-style witnessed DAG (paper footnote 1's second system).

Byteball's answer to ordering a DAG differs from both Nano's (per-account
chains + votes) and IOTA's (cumulative weight): units reference earlier
units, a fixed list of *witnesses* stabilizes a *main chain* (MC) through
the DAG, and every unit receives a *main chain index* (MCI) — giving the
DAG a **total order**, so conflicts resolve deterministically ("earlier
in the order wins") without elections.

This is a faithful-in-shape simplification (documented in DESIGN.md):

* ``level(u)``            = 1 + max(level of parents);
* *best parent*           = parent with the highest witnessed level,
                            ties by lowest unit hash;
* ``witnessed_level(u)``  = number of distinct witnesses seen along the
                            best-parent chain within the last
                            ``WITNESS_WINDOW`` steps;
* the *main chain*        = best-parent walk from the best tip to genesis;
* ``mci(u)``              = index of the first MC unit whose past cone
                            contains ``u``;
* *stable*                = MC units more than ``stability_depth`` behind
                            the latest MC unit authored by a witness
                            majority.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.common.memo import cached
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.common.encoding import encode_bytes, encode_list, encode_uint
from repro.common.errors import UnknownParentError, ValidationError
from repro.common.types import Address, Hash
from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyPair, address_of, verify_signature

#: How far back the witnessed-level walk looks.
WITNESS_WINDOW = 20


@dataclass(frozen=True)
class Unit:
    """One DAG unit: payload + references to one or more parents."""

    parents: Tuple[Hash, ...]
    payload: bytes
    timestamp: float
    public_key: bytes = b""
    signature: bytes = b""

    def _signed_body(self) -> bytes:
        return (
            encode_list([bytes(p) for p in self.parents])
            + encode_bytes(self.payload)
            + encode_uint(int(self.timestamp * 1000), 8)
        )

    @cached
    def unit_hash(self) -> Hash:
        return sha256(self._signed_body())

    @property
    def author(self) -> Address:
        return address_of(self.public_key)

    def serialize(self) -> bytes:
        return self._signed_body() + self.public_key.ljust(32, b"\x00") + (
            self.signature.ljust(64, b"\x00")
        )

    @property
    def size_bytes(self) -> int:
        return len(self.serialize())

    @property
    def is_genesis(self) -> bool:
        return not self.parents

    def verify_signature(self) -> bool:
        return verify_signature(self.public_key, bytes(self.unit_hash), self.signature)


def make_unit(
    keypair: KeyPair,
    parents: Sequence[Hash],
    payload: bytes,
    timestamp: float,
) -> Unit:
    unsigned = Unit(parents=tuple(parents), payload=payload, timestamp=timestamp)
    return Unit(
        parents=unsigned.parents,
        payload=payload,
        timestamp=timestamp,
        public_key=keypair.public_key,
        signature=keypair.sign(bytes(unsigned.unit_hash)),
    )


class ByteballDag:
    """The witnessed DAG with main-chain total ordering."""

    def __init__(self, witnesses: Sequence[Address], stability_depth: int = 3) -> None:
        if not witnesses:
            raise ValidationError("need at least one witness")
        if stability_depth < 1:
            raise ValidationError("stability depth must be positive")
        self.witnesses: Tuple[Address, ...] = tuple(witnesses)
        self.majority = len(self.witnesses) // 2 + 1
        self.stability_depth = stability_depth
        self._units: Dict[Hash, Unit] = {}
        self._children: Dict[Hash, List[Hash]] = {}
        self._level: Dict[Hash, int] = {}
        self._best_parent: Dict[Hash, Optional[Hash]] = {}
        self._witnessed_level: Dict[Hash, int] = {}
        self._tips: Set[Hash] = set()
        self.genesis_hash: Optional[Hash] = None

    # --------------------------------------------------------------- genesis

    def create_genesis(self, keypair: KeyPair) -> Unit:
        if self.genesis_hash is not None:
            raise ValidationError("dag already has a genesis")
        genesis = make_unit(keypair, (), b"genesis", 0.0)
        self._insert(genesis)
        self.genesis_hash = genesis.unit_hash
        return genesis

    # ---------------------------------------------------------------- access

    def __contains__(self, unit_hash: Hash) -> bool:
        return unit_hash in self._units

    def __len__(self) -> int:
        return len(self._units)

    def unit(self, unit_hash: Hash) -> Unit:
        return self._units[unit_hash]

    def tips(self) -> List[Hash]:
        return sorted(self._tips)

    def level(self, unit_hash: Hash) -> int:
        return self._level[unit_hash]

    def witnessed_level(self, unit_hash: Hash) -> int:
        return self._witnessed_level[unit_hash]

    def serialized_size(self) -> int:
        return sum(u.size_bytes for u in self._units.values())

    # -------------------------------------------------------------- mutation

    def attach(self, unit: Unit) -> None:
        if self.genesis_hash is None:
            raise ValidationError("create the genesis first")
        if unit.unit_hash in self._units:
            raise ValidationError(f"duplicate unit {unit.unit_hash.short()}")
        if unit.is_genesis:
            raise ValidationError("only one genesis allowed")
        for parent in unit.parents:
            if parent not in self._units:
                raise UnknownParentError(f"unknown parent {parent.short()}")
        if len(set(unit.parents)) != len(unit.parents):
            raise ValidationError("duplicate parents")
        if not unit.verify_signature():
            raise ValidationError("invalid signature")
        self._insert(unit)

    def _insert(self, unit: Unit) -> None:
        h = unit.unit_hash
        self._units[h] = unit
        self._children[h] = []
        if unit.is_genesis:
            self._level[h] = 0
            self._best_parent[h] = None
            self._witnessed_level[h] = 0
            self._tips = {h}
            return
        self._level[h] = 1 + max(self._level[p] for p in unit.parents)
        best = min(
            unit.parents,
            key=lambda p: (-self._witnessed_level[p], bytes(p)),
        )
        self._best_parent[h] = best
        self._witnessed_level[h] = self._compute_witnessed_level(h)
        for parent in unit.parents:
            self._children[parent].append(h)
            self._tips.discard(parent)
        self._tips.add(h)

    def _compute_witnessed_level(self, unit_hash: Hash) -> int:
        """Distinct witnesses on the recent best-parent chain."""
        seen: Set[Address] = set()
        current: Optional[Hash] = unit_hash
        for _ in range(WITNESS_WINDOW):
            if current is None:
                break
            author = self._units[current].author
            if author in self.witnesses:
                seen.add(author)
            current = self._best_parent[current]
        return len(seen)

    # ------------------------------------------------------------ main chain

    def best_tip(self) -> Hash:
        """Tip with the highest witnessed level (tie: lowest hash)."""
        return min(self._tips, key=lambda t: (-self._witnessed_level[t], bytes(t)))

    def main_chain(self) -> List[Hash]:
        """Best-parent walk from the best tip to genesis, genesis-first."""
        chain: List[Hash] = []
        current: Optional[Hash] = self.best_tip()
        while current is not None:
            chain.append(current)
            current = self._best_parent[current]
        chain.reverse()
        return chain

    def past_cone(self, unit_hash: Hash) -> Set[Hash]:
        seen: Set[Hash] = set()
        stack = [unit_hash]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._units[current].parents)
        return seen

    def mci_assignments(self) -> Dict[Hash, int]:
        """Main-chain index of every unit: the index of the first MC unit
        whose past cone contains it — the DAG's total-order key."""
        assignments: Dict[Hash, int] = {}
        covered: Set[Hash] = set()
        for index, mc_unit in enumerate(self.main_chain()):
            cone = self.past_cone(mc_unit)
            for unit_hash in cone - covered:
                assignments[unit_hash] = index
            covered |= cone
        return assignments

    def total_order(self) -> List[Hash]:
        """All ordered units: sorted by (MCI, unit hash).

        Units not yet reachable from the main chain (fresh side tips)
        are excluded — they get ordered once the MC advances over them.
        """
        assignments = self.mci_assignments()
        return sorted(assignments, key=lambda h: (assignments[h], bytes(h)))

    def resolve_conflict(self, a: Hash, b: Hash) -> Optional[Hash]:
        """Deterministic conflict resolution: the unit earlier in the
        total order wins; None if either is not yet ordered."""
        assignments = self.mci_assignments()
        if a not in assignments or b not in assignments:
            return None
        return min(a, b, key=lambda h: (assignments[h], bytes(h)))

    # -------------------------------------------------------------- stability

    def last_stable_mci(self) -> int:
        """MC index below which units are stable (irreversible).

        An MC unit is stable once the main chain has advanced
        ``stability_depth`` units past it *and* a witness majority has
        authored units above it.
        """
        chain = self.main_chain()
        witness_authors_above: Set[Address] = set()
        stable_cutoff = -1
        for index in range(len(chain) - 1, -1, -1):
            author = self._units[chain[index]].author
            if author in self.witnesses:
                witness_authors_above.add(author)
            if (
                len(witness_authors_above) >= self.majority
                and len(chain) - 1 - index >= self.stability_depth
            ):
                stable_cutoff = index
                break
        return stable_cutoff

    def is_stable(self, unit_hash: Hash) -> bool:
        assignments = self.mci_assignments()
        mci = assignments.get(unit_hash)
        if mci is None:
            return False
        return mci <= self.last_stable_mci()
