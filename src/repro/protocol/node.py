"""The layered node: transport → intake → consensus on one replica.

:class:`ProtocolNode` composes the stack under a
:class:`~repro.net.node.NetworkNode`: the single shared ingest pipeline
(duplicate check → dependency check → park-or-integrate →
dependency-arrival retry) that three node classes used to hand-roll
divergently, plus the lifecycle glue — republish-on-reconnect and
intake revival on restart/heal — that previously existed only where a
fuzzer had already found the corresponding divergence bug.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional

from repro.common.errors import ReproError
from repro.net.node import NetworkNode
from repro.protocol.intake import DEFAULT_INTAKE_CAPACITY, IntakeLayer
from repro.protocol.interfaces import ConsensusEngine
from repro.protocol.transport import TransportLayer


class ProtocolNode(NetworkNode):
    """A network node running the layered protocol stack.

    Subclasses set :attr:`consensus` (their
    :class:`~repro.protocol.interfaces.ConsensusEngine`) during
    ``__init__`` and route gossip payloads through :meth:`ingest` /
    :meth:`ingest_quietly`; locally created artifacts go out through
    ``self.transport.publish``.  Everything else — parking, retry,
    revival, republish — is this class.
    """

    #: Set by the subclass constructor before any traffic flows.
    consensus: ConsensusEngine

    #: Per-node adversary flag (see :mod:`repro.faults`).  Honest by
    #: default; adapters flip it when wiring a Byzantine family
    #: (equivocation, withholding, selfish mining) onto this replica.
    is_byzantine: bool = False

    def __init__(
        self,
        node_id: str,
        *,
        intake_capacity: Optional[int] = DEFAULT_INTAKE_CAPACITY,
    ) -> None:
        super().__init__(node_id)
        self.intake = IntakeLayer(capacity=intake_capacity)
        self.transport = TransportLayer(self, retain=self.retains_artifact)

    # ------------------------------------------------------------- lifecycle

    def set_online(self, online: bool) -> None:
        """Reconnect first kicks parked network retries (base class),
        then flushes this node's own offline publications, then gives
        every parked intake artifact a fresh chance (its dependency may
        have arrived while we were away, via bootstrap or a peer)."""
        was_online = self.online
        super().set_online(online)
        if online and not was_online:
            republished = self.transport.on_reconnect()
            if republished:
                self._trace("record_republish", republished)
            self.revive_intake()

    def on_partition_heal(self) -> None:
        """Network-wide heal hook (see :meth:`Network.heal`)."""
        if self.online:
            self.revive_intake()

    # ----------------------------------------------------------- the pipeline

    def ingest(self, artifact: Any) -> bool:
        """Run one artifact through intake + consensus.

        Returns ``True`` when the artifact was integrated (and its
        parked dependents retried).  Raises whatever the consensus
        engine's validation raises — callers that must not propagate
        peer garbage use :meth:`ingest_quietly`.
        """
        key = self._ingest_no_retry(artifact)
        if key is None:
            return False
        self.retry_dependents(key)
        return True

    def _ingest_no_retry(self, artifact: Any) -> Optional[Hashable]:
        """One artifact through intake + consensus, without the
        dependent-retry tail; returns its key when integrated."""
        engine = self.consensus
        key = engine.artifact_key(artifact)
        if engine.is_known(key):
            return None
        missing = engine.missing_dependency(artifact)
        if missing is not None:
            evicted = self.intake.park(missing, artifact)
            self._trace("record_intake_park", missing, evicted)
            self.on_parked(artifact, missing)
            return None
        if not engine.integrate(artifact):
            return None
        engine.on_applied(artifact)
        return key

    def ingest_quietly(self, artifact: Any) -> bool:
        """:meth:`ingest`, swallowing validation errors from peers."""
        try:
            return self.ingest(artifact)
        except ReproError:
            return False

    def ingest_batch(self, artifacts: Any, *, skip: Any = None) -> int:
        """:meth:`ingest_quietly` over a burst; returns the number
        integrated directly (revived dependents not counted).

        ``skip`` (optional callable) is evaluated at each artifact's turn
        and drops it without touching the engine — callers whose engines
        count duplicates (the lattice) pass a membership test so an
        artifact integrated mid-burst (dependency retry, auto-receive)
        is skipped.
        """
        return sum(self.ingest_quietly(a) for a in artifacts
                   if skip is None or not skip(a))

    def retry_dependents(self, key: Hashable) -> int:
        """Re-ingest everything parked on the just-integrated ``key``.

        The revival cascade (a revived artifact unblocks its own
        dependents, and so on) runs on an explicit stack in the same
        depth-first pre-order the old mutual recursion produced — a
        bootstrap burst can legally park thousands of artifacts behind
        one dependency, far past the interpreter's recursion limit.
        """
        parked = self.intake.satisfy(key)
        stack = [iter(parked)]
        while stack:
            artifact = next(stack[-1], None)
            if artifact is None:
                stack.pop()
                continue
            try:
                child = self._ingest_no_retry(artifact)
            except ReproError:
                continue
            if child is not None:
                stack.append(iter(self.intake.satisfy(child)))
        return len(parked)

    def revive_intake(self) -> int:
        """Retry every parked artifact; still-blocked ones re-park."""
        backlog = self.intake.drain()
        if backlog:
            self._trace("record_intake_revive", len(backlog))
        for artifact in backlog:
            self.ingest_quietly(artifact)
        return len(backlog)

    # ----------------------------------------------------------------- hooks

    def on_parked(self, artifact: Any, missing: Hashable) -> None:
        """Subclass hook: an artifact just parked waiting on ``missing``."""

    def retains_artifact(self, artifact: Any) -> bool:
        """Whether an offline-queued artifact is still worth
        republishing (default: yes).  Subclasses narrow this to "still
        in my ledger" so rolled-back artifacts are not resurrected."""
        return True

    # --------------------------------------------------------------- metrics

    def layer_counters(self) -> Dict[str, float]:
        """Per-layer cost attribution for sweeps: transport and intake
        counters plus the base traffic totals, one flat namespace."""
        flat: Dict[str, float] = {
            "transport.messages_sent": float(self.messages_sent),
            "transport.messages_received": float(self.messages_received),
            "transport.bytes_sent": float(self.bytes_sent),
            "transport.bytes_received": float(self.bytes_received),
        }
        for name, value in self.transport.counters.as_dict().items():
            flat[name] = float(value)
        for name, value in self.intake.counters.as_dict().items():
            flat[name] = float(value)
        flat["intake.backlog"] = float(len(self.intake))
        engine = getattr(self, "consensus", None)
        if engine is not None:
            for name, value in engine.counters().items():
                flat[f"consensus.{name}"] = float(value)
        return flat

    # ----------------------------------------------------------------- trace

    def _trace(self, record: str, *args: Any) -> None:
        """Emit a stack event into the network's tracer, if any is
        attached and enabled (the same gate as the gossip hot path)."""
        network = self.network
        if network is None:
            return
        tracer = network.tracer
        if not tracer.enabled:
            return
        getattr(tracer, record)(network.simulator.now, self.node_id, *args)
