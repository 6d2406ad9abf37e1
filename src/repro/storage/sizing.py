"""Byte-accurate ledger size reports (Section V).

Sizes are measured from real serialized structures — every number in a
report is ``len(serialize())`` of something, never an estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.common.units import format_bytes
from repro.blockchain.chain import ChainStore
from repro.blockchain.state import AccountState
from repro.dag.lattice import Lattice


@dataclass
class LedgerSizeReport:
    """Component-wise byte breakdown of one ledger replica."""

    ledger_name: str
    components: Dict[str, int] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return sum(self.components.values())

    def add(self, component: str, size_bytes: int) -> None:
        self.components[component] = self.components.get(component, 0) + size_bytes

    def render(self) -> str:
        lines = [f"{self.ledger_name}: {format_bytes(self.total_bytes)}"]
        for name, size in sorted(self.components.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name:<20} {format_bytes(size)}")
        return "\n".join(lines)


def blockchain_size_report(
    chain: ChainStore,
    state: Optional[AccountState] = None,
    name: str = "blockchain",
) -> LedgerSizeReport:
    """Measure a blockchain replica: headers, bodies, and (when present)
    the state trie with its historical deltas — one stored version per
    state root read, so per block on a node, not per transaction."""
    report = LedgerSizeReport(ledger_name=name)
    for block in chain.headers():
        report.add("headers", block.header.size_bytes)
        report.add("tx_bodies", block.body_size_bytes)
    if state is not None:
        report.add("state_trie", state.store_size_bytes())
    return report


def dag_size_report(lattice: Lattice, name: str = "nano") -> LedgerSizeReport:
    """Measure a block-lattice replica.

    Every DAG node is one transaction, so there is no header/body split;
    the per-block signature + work overhead is reported separately to
    show where Nano's bytes go.
    """
    report = LedgerSizeReport(ledger_name=name)
    from repro.dag.blocks import NanoBlock

    per_block_overhead = NanoBlock.AUTH_OVERHEAD_BYTES
    for account_chain in [lattice.chain(a) for a in _accounts(lattice)]:
        assert account_chain is not None
        for block in account_chain.blocks:
            report.add("blocks", block.size_bytes - per_block_overhead)
            report.add("signatures_and_work", per_block_overhead)
    return report


def _accounts(lattice: Lattice):
    return list(lattice._chains.keys())  # noqa: SLF001 - read-only introspection
