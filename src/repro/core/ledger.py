"""The paradigm-agnostic ledger interface and deployment lifecycle.

All paradigms are "transaction-based state machines" (Section II); this
interface captures the operations the paper compares them on, so the
comparison layer, workloads and size accounting treat a blockchain, a
block-lattice and a BFT roster uniformly.  :class:`Ledger` also owns
everything a simulated deployment shares — the simulator/network/nodes,
the clock, submit bookkeeping and confirmation statistics — so an
adapter only states what its paradigm does differently.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.common.types import Hash
from repro.net.link import LinkParams
from repro.net.network import Network
from repro.protocol import aggregate_layer_counters
from repro.sim.simulator import Simulator
from repro.trace import BYZANTINE
from repro.workloads.generators import PaymentEvent

if TYPE_CHECKING:  # pragma: no cover - capability types only
    from repro.core.invariants import AuditReport


@dataclass
class LedgerStats:
    """Run statistics every adapter reports."""

    entries_created: int = 0
    entries_confirmed: int = 0
    forks_observed: int = 0
    reorgs: int = 0
    confirmation_latencies_s: List[float] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)


class Ledger(abc.ABC):
    """A running DLT deployment processing a payment workload.

    Lifecycle: construct → :meth:`setup` (fund accounts) → interleave
    :meth:`submit` / :meth:`advance` → read balances, confirmation state
    and sizes.  ``simulator`` / ``network`` / ``nodes`` are the live
    machinery once :meth:`setup` has run (``None`` / empty before);
    paradigm-agnostic tooling — the invariant monitor, fault injection,
    the fuzzer, open-loop workloads — hooks them directly.

    An adapter implements :meth:`setup`, :meth:`submit`,
    :meth:`serialized_size`, :meth:`_confirmed_at` and
    :meth:`_paradigm_stats`; the audit/digest/adversary capabilities
    below are optional.
    """

    name: str = "ledger"
    paradigm: str = "abstract"
    simulator: Optional[Simulator] = None
    network: Optional[Network] = None

    def __init__(
        self,
        node_count: int,
        link_params: Optional[LinkParams],
        seed: int,
        byzantine_nodes: int,
        byzantine_behavior: str,
        plane_factory: Optional[Callable[[Simulator], Network]] = None,
    ) -> None:
        self.node_count = node_count
        self.link_params = link_params or LinkParams()
        self.seed = seed
        self.byzantine_nodes = byzantine_nodes
        self.byzantine_behavior = byzantine_behavior
        #: MessagePlane constructor (simulator -> plane); None = exact
        #: reference Network.  How the sharded tier slots in underneath
        #: an unchanged protocol stack.
        self.plane_factory = plane_factory
        self.nodes: List = []
        #: workload account keypairs (paradigms with keyed accounts)
        self.keys: List = []
        self._submit_times: Dict[Hash, float] = {}
        self._stats = LedgerStats()

    # Per-paradigm -------------------------------------------------------

    @abc.abstractmethod
    def setup(self, accounts: int, initial_balance: int) -> None:
        """Create and fund ``accounts`` user accounts."""

    @abc.abstractmethod
    def submit(self, event: PaymentEvent) -> Optional[Hash]:
        """Inject one payment; returns the ledger entry's id (or None if
        the adapter had to drop it, e.g. sender underfunded)."""

    @abc.abstractmethod
    def serialized_size(self) -> int:
        """Ledger bytes a full (historical) replica stores (Section V)."""

    def _confirmed_at(self, entry: Hash) -> Optional[float]:
        """Simulated time the observer replica confirmed ``entry`` under
        the paradigm's own clock (None = not yet)."""
        raise NotImplementedError

    def _paradigm_stats(self, stats: LedgerStats) -> None:
        """Fill ``forks_observed`` / ``reorgs`` and the paradigm's own
        leading ``extra`` keys."""

    # Shared lifecycle ---------------------------------------------------

    def _build_fabric(self) -> None:
        self.simulator = Simulator(seed=self.seed)
        self.network = (self.plane_factory(self.simulator)
                        if self.plane_factory is not None
                        else Network(self.simulator))

    def _flag_byzantine(self, node) -> None:
        node.is_byzantine = True
        self.network.tracer.emit(
            self.simulator.now, BYZANTINE, src=node.node_id,
            reason=self.byzantine_behavior)

    def _record_submit(self, entry: Hash) -> Hash:
        self._stats.entries_created += 1
        self._submit_times[entry] = self.now()
        return entry

    def advance(self, duration_s: float) -> None:
        """Run the deployment forward by simulated time."""
        # Never unbounded: a BFT pacemaker re-arms a timeout every view,
        # so some deployments always have future events.
        self.simulator.run(until=self.simulator.now + duration_s)

    def now(self) -> float:
        """Current simulated time."""
        return self.simulator.now if self.simulator else 0.0

    def is_confirmed(self, entry: Hash) -> bool:
        """Confirmed at the observer replica under the implementation's
        own convention (depth for blockchain, vote quorum for DAG,
        commit certificate for BFT — Section IV)."""
        return self.nodes[0].is_confirmed(entry)

    def balance(self, account_index: int) -> int:
        """Balance of the i-th workload account at the observer replica."""
        return self.nodes[0].balance(self.keys[account_index].address)

    def stats(self) -> LedgerStats:
        """Aggregate run statistics."""
        stats = self._stats
        stats.entries_confirmed = sum(
            1 for entry in self._submit_times if self.is_confirmed(entry))
        stats.confirmation_latencies_s = [
            max(0.0, confirmed_at - submitted)
            for entry, submitted in self._submit_times.items()
            if (confirmed_at := self._confirmed_at(entry)) is not None
        ]
        self._paradigm_stats(stats)
        stats.extra.update(aggregate_layer_counters(self.nodes))
        return stats

    # Optional capabilities (in-loop checking) ---------------------------
    #
    # The defaults make every capability safely absent so the checking
    # layer degrades gracefully on exotic adapters.

    def audit(self) -> Optional["AuditReport"]:
        """Run the paradigm's global-invariant audit right now."""
        return None

    def state_digest(self) -> str:
        """Deterministic digest of observable replica state (balances,
        heads, sizes) — one input to the fuzzer's run fingerprint.
        Empty string = no digest capability."""
        return ""

    def submit_double_spend(self, event: PaymentEvent) -> List[Hash]:
        """Inject two conflicting entries spending the same funds at
        different replicas (Section IV's adversary).  Adapters without a
        conflict path fall back to a single honest submission."""
        entry = self.submit(event)
        return [entry] if entry is not None else []

    def inject_supply_corruption(self, amount: int) -> bool:
        """Deliberately corrupt one replica's materialized state by
        ``amount`` value units (a test-oracle backdoor: the audit must
        flag the supply violation).  Returns False when unsupported."""
        return False

    def submit_tip_spam(self, event: PaymentEvent, fanout: int = 3) -> List[Hash]:
        """Conflicting-tip spam: ``fanout`` mutually conflicting entries
        injected at distinct replicas (the DAG SoKs' tip-flooding
        adversary).  Paradigms without a tip structure degrade to the
        two-way conflict of :meth:`submit_double_spend`."""
        return self.submit_double_spend(event)

    # Convenience shared by adapters -------------------------------------

    def run_workload(
        self, events: List[PaymentEvent], settle_s: float = 30.0
    ) -> List[Hash]:
        """Feed timed events at their timestamps, then let things settle."""
        entries: List[Hash] = []
        for event in sorted(events, key=lambda e: e.time_s):
            if event.time_s > self.now():
                self.advance(event.time_s - self.now())
            entry = self.submit(event)
            if entry is not None:
                entries.append(entry)
        self.advance(settle_s)
        return entries
