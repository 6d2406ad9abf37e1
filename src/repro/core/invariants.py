"""Deployment invariant auditing.

A distributed ledger's whole point is a handful of global invariants —
value conservation, replica agreement, no surviving double spends.  This
module checks them against *running deployments* (networks of nodes),
returning structured violations instead of asserting, so tests, benches
and examples can audit any simulation they build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Set, Tuple

from repro.common.types import TxId
from repro.blockchain.node import BlockchainNode
from repro.blockchain.transaction import Transaction
from repro.dag.node import NanoNode


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with enough context to debug it."""

    invariant: str
    detail: str


@dataclass
class AuditReport:
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, invariant: str, detail: str) -> None:
        self.violations.append(Violation(invariant=invariant, detail=detail))

    def render(self) -> str:
        if self.ok:
            return "all invariants hold"
        return "\n".join(f"[{v.invariant}] {v.detail}" for v in self.violations)


# ------------------------------------------------------------- blockchain


def audit_blockchain(
    nodes: Sequence[BlockchainNode],
    expected_supply_base: int,
    agreement_depth: int = 6,
) -> AuditReport:
    """Audit a blockchain deployment.

    * supply: every UTXO replica's total value equals the genesis supply
      plus the mined rewards on its main chain;
    * agreement: all replicas share the block at ``agreement_depth``
      below the shortest chain (tips may legitimately differ);
    * no double spend: no outpoint is consumed twice on any main chain.
    """
    report = AuditReport()
    if not nodes:
        report.add("setup", "no nodes to audit")
        return report

    for node in nodes:
        if node.utxo is not None:
            expected = (
                expected_supply_base + node.params.block_reward * node.chain.height
            )
            actual = node.utxo.total_value()
            if actual != expected:
                report.add(
                    "supply",
                    f"{node.node_id}: UTXO total {actual} != expected {expected}",
                )
        elif node.state is not None:
            # Account supply grows by reward + nothing else; fees move.
            expected = (
                expected_supply_base + node.params.block_reward * node.chain.height
            )
            actual = node.state.total_supply()
            if actual != expected:
                report.add(
                    "supply",
                    f"{node.node_id}: account total {actual} != expected {expected}",
                )

    heights = [n.chain.height for n in nodes]
    if max(heights) - min(heights) > agreement_depth:
        laggards = [
            n.node_id for n in nodes if n.chain.height < max(heights) - agreement_depth
        ]
        report.add(
            "liveness",
            f"replicas {laggards} lag the best height {max(heights)} by more "
            f"than {agreement_depth} blocks",
        )
    check_height = max(min(heights) - agreement_depth, 0)
    deep_blocks = {n.chain.block_at_height(check_height).block_id for n in nodes}
    agreement_ok = len(deep_blocks) == 1
    if not agreement_ok:
        report.add(
            "agreement",
            f"replicas disagree at height {check_height}: "
            + ", ".join(h.short() for h in deep_blocks),
        )

    for node in nodes:
        spent: Set[Tuple[TxId, int]] = set()
        for block in node.chain.main_chain():
            for tx in block.transactions:
                if not isinstance(tx, Transaction) or tx.is_coinbase:
                    continue
                for tx_input in tx.inputs:
                    if tx_input.outpoint in spent:
                        report.add(
                            "double-spend",
                            f"{node.node_id}: outpoint "
                            f"{tx_input.prev_txid.short()}:{tx_input.prev_index} "
                            "spent twice on the main chain",
                        )
                    spent.add(tx_input.outpoint)
        if agreement_ok:
            # Main chains agree below the tips, so one replica's walk
            # covers them all; with divergent chains every replica's own
            # main chain must be checked for a surviving double spend.
            break

    return report


# -------------------------------------------------------------------- dag


def audit_lattice(nodes: Sequence[NanoNode], expected_supply: int) -> AuditReport:
    """Audit a block-lattice deployment.

    * supply: every replica's balances + pending sends equal the genesis
      supply;
    * agreement: all replicas hold the same chain head per account;
    * one successor: no replica has two blocks claiming one predecessor
      (structurally impossible in our lattice, checked for belt and
      braces via per-chain linkage).
    """
    report = AuditReport()
    if not nodes:
        report.add("setup", "no nodes to audit")
        return report

    for node in nodes:
        supply = node.lattice.total_supply()
        if supply != expected_supply:
            report.add(
                "supply",
                f"{node.node_id}: lattice supply {supply} != {expected_supply}",
            )

    accounts = set()
    for node in nodes:
        accounts.update(node.lattice.accounts())
    for account in accounts:
        heads = set()
        for node in nodes:
            chain = node.lattice.chain(account)
            if chain is not None and chain.blocks:
                heads.add(chain.head.block_hash)
        if len(heads) > 1:
            report.add(
                "agreement",
                f"account {account.short()}: replicas report heads "
                + ", ".join(h.short() for h in heads),
            )

    for node in nodes:
        for chain in node.lattice.chains():
            for prev, block in zip(chain.blocks, chain.blocks[1:]):
                if block.previous != prev.block_hash:
                    report.add(
                        "linkage",
                        f"{node.node_id}/{chain.account.short()}: broken chain link at "
                        f"{block.block_hash.short()}",
                    )
    return report


# -------------------------------------------------------------------- bft


def audit_bft(
    nodes: Sequence["BftNode"],
    expected_supply: int,
    lag_blocks: int = 8,
) -> AuditReport:
    """Audit a quorum-certificate BFT deployment.

    * safety (strict at every tick): no two replicas have committed
      conflicting blocks — every pair of committed sequences must be
      prefix-consistent.  This is the f < n/3 guarantee; the
      seeded-violation profile breaks it by over-riding f.
    * supply (strict): each replica's account balances sum to the funded
      total (commit-time application conserves value by construction;
      the check catches injected corruption).
    * liveness (eventual): once traffic has flowed, every online replica
      is within ``lag_blocks`` commits of the most advanced one, which
      in turn has committed at least one block.  Transient lag during
      view changes and partitions is expected; the monitor only enforces
      this strictly at quiescence.
    """
    report = AuditReport()
    if not nodes:
        report.add("setup", "no nodes to audit")
        return report

    for node in nodes:
        total = sum(node.balances.values())
        if total != expected_supply:
            report.add(
                "supply",
                f"{node.node_id}: balances sum {total} != {expected_supply}",
            )

    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            shorter, longer = (a, b) if len(a.committed) <= len(b.committed) \
                else (b, a)
            prefix = longer.committed[: len(shorter.committed)]
            if shorter.committed != prefix:
                divergence = next(
                    (k for k, (x, y) in
                     enumerate(zip(shorter.committed, prefix)) if x != y),
                    len(shorter.committed),
                )
                report.add(
                    "safety",
                    f"{a.node_id} / {b.node_id}: committed sequences "
                    f"diverge at height {divergence} "
                    f"({shorter.committed[divergence].short()} vs "
                    f"{prefix[divergence].short()})",
                )

    online = [n for n in nodes if getattr(n, "online", True)]
    if online:
        heights = {n.node_id: n.committed_height for n in online}
        top = max(heights.values())
        if top < 1:
            report.add("liveness", "no replica has committed any block")
        laggards = [nid for nid, h in heights.items()
                    if top - h > lag_blocks]
        if laggards:
            report.add(
                "liveness",
                f"replicas {', '.join(sorted(laggards))} lag the "
                f"committed frontier (height {top}) by more than "
                f"{lag_blocks} blocks",
            )
    return report
