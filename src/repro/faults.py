"""Fault injection for simulated networks.

A :class:`FaultInjector` layers scheduled failures over a
``Simulator``/``Network`` pair: node crashes and restarts (including
random churn), link degradation and blackhole windows, and timed
partitions with automatic heal.  Every injected fault is recorded in the
network's :class:`~repro.trace.Tracer`, so a run's divergence can be
read straight out of the JSONL trace.

These are the degraded regimes under which the paper's consistency
claims actually bite (Section IV's disagreement windows, Section VI-B's
real-world limitations) and the evaluation axes of the DAG SoKs (node
churn, adversarial delay).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.rng import exponential
from repro.net.link import LinkParams
from repro.net.network import Network
from repro.protocol import protocol_nodes
from repro.trace import CRASH, DEGRADE, RESTART, RESTORE

#: Byzantine behaviour families the adapters know how to wire.  Each
#: family draws from its own ``fork_rng`` stream (``byz:<family>:<node>``)
#: so enabling one adversary never perturbs another's decisions.
BYZANTINE_FAMILIES = (
    "equivocate",   # conflicting proposals + double votes (BFT)
    "withhold",     # silent leader / withheld votes (BFT)
    "selfish",      # selfish mining: private chain, timed release (PoW)
    "tip-spam",     # conflicting-tip spam from marked replicas (DAG)
)


@dataclass(frozen=True)
class ByzantineSpec:
    """An adversary mix for :func:`repro.core.deploy.build_deployment`.

    ``count`` replicas (the roster's first indices) run ``behavior``;
    ``f_override`` adjusts the BFT quorum threshold ``n - f`` (set it to
    ``>= n/3`` to reproduce the classical safety violation the
    seeded-violation fuzz profile demonstrates).
    """

    count: int = 1
    behavior: str = "equivocate"
    f_override: Optional[int] = None

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be >= 0")
        if self.behavior not in BYZANTINE_FAMILIES:
            raise ValueError(
                f"unknown Byzantine behavior {self.behavior!r} "
                f"(choose from {', '.join(BYZANTINE_FAMILIES)})")


@dataclass(frozen=True)
class ChurnParams:
    """Random crash/restart cycling for a pool of nodes.

    Each node independently crashes as a Poisson process with mean time
    between failures ``mtbf_s`` and stays down ``downtime_s`` seconds.
    """

    mtbf_s: float
    downtime_s: float
    start_s: float = 0.0
    until_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mtbf_s <= 0:
            raise ValueError("mtbf_s must be positive")
        if self.downtime_s <= 0:
            raise ValueError("downtime_s must be positive")


def sample_churn_times(
    rng: random.Random,
    mtbf_s: float,
    downtime_s: float,
    start_s: float = 0.0,
    until_s: float = 0.0,
) -> List[Tuple[float, float]]:
    """Sample one node's ``(crash_time, restart_time)`` cycles.

    The Poisson crash/fixed-downtime process behind both
    :meth:`FaultInjector.churn` and the fuzzer's churn schedules — a
    pure function of the supplied RNG, so seeded callers get
    reproducible fault timelines.
    """
    if mtbf_s <= 0:
        raise ValueError("mtbf_s must be positive")
    if downtime_s <= 0:
        raise ValueError("downtime_s must be positive")
    cycles: List[Tuple[float, float]] = []
    t = start_s + exponential(rng, 1.0 / mtbf_s)
    while t < until_s:
        cycles.append((t, t + downtime_s))
        t += downtime_s + exponential(rng, 1.0 / mtbf_s)
    return cycles


class FaultInjector:
    """Schedules faults against a network and records them in its trace."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self.simulator = network.simulator
        self.tracer = network.tracer
        self.crashes_injected = 0
        self.restarts_injected = 0
        self.partitions_injected = 0
        self.heals_injected = 0
        #: links currently under degradation: (true original params,
        #: number of still-active degradation windows).  The depth count
        #: makes overlapping degrade/restore windows compose — only the
        #: last window's restore swaps the original back in.
        self._degraded: Dict[Tuple[str, str], Tuple[LinkParams, int]] = {}

    # ------------------------------------------------------------- crashes

    def crash(self, node_id: str) -> None:
        """Take ``node_id`` offline immediately."""
        node = self.network.node(node_id)
        if node.online:
            node.set_online(False)
            self.crashes_injected += 1
            self.tracer.emit(self.simulator.now, CRASH, src=node_id)

    def restart(self, node_id: str) -> None:
        """Bring ``node_id`` back online; parked gossip destined for it
        is retried immediately (see ``NetworkNode.set_online``)."""
        node = self.network.node(node_id)
        if not node.online:
            node.set_online(True)
            self.restarts_injected += 1
            self.tracer.emit(self.simulator.now, RESTART, src=node_id)

    def crash_at(self, time_s: float, node_id: str,
                 duration_s: Optional[float] = None) -> None:
        """Crash ``node_id`` at ``time_s``; restart after ``duration_s``
        when given (otherwise the node stays down)."""
        self.simulator.schedule_at(time_s, lambda: self.crash(node_id),
                                   label=f"fault:crash:{node_id}")
        if duration_s is not None:
            if duration_s <= 0:
                raise ValueError("duration_s must be positive")
            self.restart_at(time_s + duration_s, node_id)

    def restart_at(self, time_s: float, node_id: str) -> None:
        self.simulator.schedule_at(time_s, lambda: self.restart(node_id),
                                   label=f"fault:restart:{node_id}")

    def churn(self, node_ids: Sequence[str], params: ChurnParams) -> int:
        """Pre-schedule random crash/restart cycles for ``node_ids``.

        Returns the number of crash/restart pairs scheduled.  Draws come
        from per-node forked RNG streams, so adding churn to one node
        does not perturb another's schedule.
        """
        until = params.until_s
        if until is None:
            raise ValueError("ChurnParams.until_s is required for churn()")
        cycles = 0
        for node_id in node_ids:
            rng = self.simulator.fork_rng(f"churn:{node_id}")
            for crash_time, _restart_time in sample_churn_times(
                rng, params.mtbf_s, params.downtime_s,
                start_s=params.start_s, until_s=until,
            ):
                self.crash_at(crash_time, node_id,
                              duration_s=params.downtime_s)
                cycles += 1
        return cycles

    # --------------------------------------------------------------- links

    def degrade_link(self, a: str, b: str, params: LinkParams,
                     bidirectional: bool = True) -> None:
        """Swap in degraded link parameters, remembering the originals."""
        pairs = ((a, b), (b, a)) if bidirectional else ((a, b),)
        for src, dst in pairs:
            original, depth = self._degraded.get(
                (src, dst), (self.network.link_params(src, dst), 0))
            self._degraded[(src, dst)] = (original, depth + 1)
            self.network.set_link(src, dst, params, bidirectional=False)
        self.tracer.emit(self.simulator.now, DEGRADE, src=a, dst=b,
                         loss=params.loss_probability,
                         latency_s=params.latency_s)

    def restore_link(self, a: str, b: str, bidirectional: bool = True) -> None:
        """Undo one :meth:`degrade_link`; stalled gossip is retried.

        Degradations nest: with two overlapping windows on the same
        pair, the first restore only decrements the window depth and the
        link stays degraded until the second restore swaps the true
        original parameters back in.
        """
        pairs = ((a, b), (b, a)) if bidirectional else ((a, b),)
        restored = False
        for src, dst in pairs:
            entry = self._degraded.get((src, dst))
            if entry is None:
                continue
            original, depth = entry
            if depth > 1:
                self._degraded[(src, dst)] = (original, depth - 1)
                continue
            del self._degraded[(src, dst)]
            self.network.set_link(src, dst, original, bidirectional=False)
            restored = True
        if restored:
            self.tracer.emit(self.simulator.now, RESTORE, src=a, dst=b)
            self.network.kick_retries()

    def degrade_link_at(self, time_s: float, a: str, b: str,
                        params: LinkParams,
                        duration_s: Optional[float] = None,
                        bidirectional: bool = True) -> None:
        """Degrade ``a <-> b`` at ``time_s``, restoring after ``duration_s``."""
        self.simulator.schedule_at(
            time_s, lambda: self.degrade_link(a, b, params, bidirectional),
            label=f"fault:degrade:{a}-{b}",
        )
        if duration_s is not None:
            if duration_s <= 0:
                raise ValueError("duration_s must be positive")
            self.simulator.schedule_at(
                time_s + duration_s,
                lambda: self.restore_link(a, b, bidirectional),
                label=f"fault:restore:{a}-{b}",
            )

    # ---------------------------------------------------------- partitions

    def partition(self, groups: Iterable[Iterable[str]]) -> None:
        """Split the network into ``groups`` immediately."""
        self.partitions_injected += 1
        self.network.partition(groups)

    def heal(self) -> None:
        """Reconnect all partitions immediately."""
        self.heals_injected += 1
        self.network.heal()

    def partition_at(self, time_s: float, groups: Iterable[Iterable[str]],
                     heal_after_s: Optional[float] = None) -> None:
        """Partition at ``time_s``; automatically heal ``heal_after_s``
        seconds later when given."""
        frozen: List[List[str]] = [list(group) for group in groups]
        self.simulator.schedule_at(
            time_s, lambda: self.partition(frozen), label="fault:partition",
        )
        if heal_after_s is not None:
            if heal_after_s <= 0:
                raise ValueError("heal_after_s must be positive")
            self.heal_at(time_s + heal_after_s)

    def heal_at(self, time_s: float) -> None:
        self.simulator.schedule_at(time_s, self.heal, label="fault:heal")

    # --------------------------------------------------------------- query

    def fault_counts(self) -> Dict[str, int]:
        return {
            "crashes": self.crashes_injected,
            "restarts": self.restarts_injected,
            "byzantine_nodes": sum(
                node.is_byzantine
                for node in protocol_nodes(self.network.nodes())),
            "degraded_links_active": len(self._degraded),
            "partitions": self.partitions_injected,
            "heals": self.heals_injected,
        }
