"""Representative voting weights (Section III-B).

"A representative's weight is calculated as the sum of all balances for
accounts that chose this representative."  The ledger keeps weights
incrementally up to date as balances and delegations change.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.common.types import Address


class RepresentativeLedger:
    """Tracks per-representative delegated weight and online status."""

    def __init__(self) -> None:
        self._weights: Dict[Address, int] = {}
        self._delegations: Dict[Address, Address] = {}  # account -> rep
        self._balances: Dict[Address, int] = {}
        self._online: Set[Address] = set()
        # Maintained incrementally alongside every weight/online change:
        # online_weight() is read once per vote heard, which made the
        # O(#online) sum a hot-path cost at scale.
        self._online_weight = 0

    # -------------------------------------------------------------- updates

    def set_account(self, account: Address, balance: int, representative: Address) -> None:
        """Record an account's new balance and delegation (one per block)."""
        old_rep = self._delegations.get(account)
        old_balance = self._balances.get(account, 0)
        if old_rep is not None:
            self._weights[old_rep] = self._weights.get(old_rep, 0) - old_balance
            if self._weights[old_rep] == 0:
                del self._weights[old_rep]
            if old_rep in self._online:
                self._online_weight -= old_balance
        self._delegations[account] = representative
        self._balances[account] = balance
        self._weights[representative] = self._weights.get(representative, 0) + balance
        if representative in self._online:
            self._online_weight += balance

    def remove_account(self, account: Address) -> None:
        """Roll back an account to the never-seen state."""
        rep = self._delegations.pop(account, None)
        balance = self._balances.pop(account, 0)
        if rep is not None:
            self._weights[rep] = self._weights.get(rep, 0) - balance
            if self._weights[rep] == 0:
                del self._weights[rep]
            if rep in self._online:
                self._online_weight -= balance

    # --------------------------------------------------------------- online

    def set_online(self, representative: Address, online: bool = True) -> None:
        """Only online representatives count toward vote quorums."""
        if online:
            if representative not in self._online:
                self._online.add(representative)
                self._online_weight += self._weights.get(representative, 0)
        elif representative in self._online:
            self._online.discard(representative)
            self._online_weight -= self._weights.get(representative, 0)

    def adopt_online(self, peer: "RepresentativeLedger") -> None:
        """Mark online every representative the peer counts online: a
        replica that joins from a peer takes the peer's quorum base."""
        for representative in peer._online:
            self.set_online(representative)

    def is_online(self, representative: Address) -> bool:
        return representative in self._online

    # ---------------------------------------------------------------- reads

    def weight(self, representative: Address) -> int:
        return self._weights.get(representative, 0)

    def representative_of(self, account: Address) -> Address:
        return self._delegations[account]

    def total_weight(self) -> int:
        return sum(self._weights.values())

    def online_weight(self) -> int:
        """Total weight held by online representatives — the quorum base.
        O(1): maintained incrementally by every update above."""
        return self._online_weight

    def representatives(self) -> Dict[Address, int]:
        return dict(self._weights)
