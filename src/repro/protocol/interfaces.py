"""Abstract interfaces of the protocol stack.

The stack decomposes every node into transport → intake → consensus →
ledger, the layering both DAG SoKs use to compare systems (Wang et al.;
Raikwar et al.) and the frame in which the source paper's Sections II-III
contrast blockchain and block-lattice.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Hashable, List, Optional, Protocol, runtime_checkable


@runtime_checkable
class MessagePlane(Protocol):
    """Structural type of the fabric a protocol node publishes into.

    The stack used to hard-couple :class:`~repro.protocol.node.ProtocolNode`
    / :class:`~repro.protocol.transport.TransportLayer` to the exact
    in-process :class:`repro.net.network.Network`.  This protocol names
    the seam instead, so the same stack runs unchanged on any fabric
    that honors the contract:

    * **publish** — :meth:`gossip` floods a message from an origin node;
      :meth:`transmit` / :meth:`transmit_reliable` are the point-to-point
      primitives (unreliable datagram vs retransmit-with-backoff).
    * **deliver** — every accepted transmission resolves as exactly one
      ``node.deliver`` at the destination, one simulator event per
      arrival; offline receivers drop (and gossip re-parks).
    * **seen/retransmit** — duplicate suppression is by *ownership*: the
      first in-flight delivery chain claims a ``(destination, key)``
      pair; lost attempts back off and retry, exhausted attempts park
      until :meth:`kick_retries` / :meth:`heal` revives them.  This is
      what lets propagation recover after partitions and restarts.
    * **layer counters** — :meth:`traffic_stats` /
      :meth:`plane_counters` expose the fabric totals that join the
      deployment's ``transport.* / intake.* / consensus.*`` namespaces.

    Three implementations exist: the exact :class:`repro.net.network.Network`
    (the reference — bit-identical goldens are pinned on it), the
    sharded plane (:class:`repro.net.sharded_plane.ShardedMessagePlane`,
    full protocol traffic over an epoch-barrier crowd at 10^4-10^6
    nodes) and the aggregate tier
    (:class:`repro.net.aggregate.AggregateCluster` leaves hanging off an
    exact boundary).  ``repro.net`` / ``repro.sim`` may import *this
    module only* from the protocol package (enforced by
    ``scripts/check_layering.py``) — the interface is the one arrow
    allowed to point upward.
    """

    simulator: Any
    tracer: Any

    # ------------------------------------------------------------- wiring
    def add_node(self, node: Any) -> None: ...

    def connect(self, a: str, b: str, params: Any = None) -> None: ...

    def set_link(self, a: str, b: str, params: Any,
                 bidirectional: bool = True) -> None: ...

    def link_params(self, a: str, b: str) -> Any: ...

    def node(self, node_id: str) -> Any: ...

    def nodes(self) -> Any: ...

    def node_ids(self) -> List[str]: ...

    def neighbors(self, node_id: str) -> List[str]: ...

    # ------------------------------------------------------------ publish
    def gossip(self, origin: str, message: Any) -> None: ...

    def transmit(self, src: str, dst: str, message: Any) -> None: ...

    def transmit_reliable(self, src: str, dst: str, message: Any) -> None: ...

    # --------------------------------------------------------- partitions
    def partition(self, groups: Any) -> None: ...

    def heal(self) -> None: ...

    # --------------------------------------------------------- retransmit
    def kick_retries(self, dst: Optional[str] = None) -> None: ...

    def pending_retries(self) -> int: ...

    # ----------------------------------------------------------- counters
    def traffic_stats(self) -> Dict[str, float]: ...

    def plane_counters(self) -> Dict[str, float]: ...


class ConsensusEngine(abc.ABC):
    """The paradigm-specific layer of a :class:`~repro.protocol.node.ProtocolNode`.

    An engine validates and integrates *artifacts* (blocks, lattice
    blocks, tangle transactions, DAG units) into its replica's ledger
    state, and names the dependency an artifact is missing so the shared
    :class:`~repro.protocol.intake.IntakeLayer` can park it.

    Contract with :meth:`ProtocolNode.ingest`:

    * :meth:`artifact_key` — the gossip/dedup identity of an artifact;
      also the intake key its dependents park under.
    * :meth:`is_known` — fast duplicate test.  Engines whose
      :meth:`integrate` already rejects duplicates exactly the way the
      pre-stack implementation did may keep the default ``False`` so
      duplicate accounting is unchanged.
    * :meth:`missing_dependency` — the key this artifact cannot be
      validated without, or ``None`` when it is ready to integrate.
    * :meth:`integrate` — apply the artifact; return ``True`` when it
      was accepted (its dependents should be retried).  May raise a
      :class:`~repro.common.errors.ReproError` subtype exactly as the
      paradigm's validation does; quiet ingest paths catch it.
    * :meth:`on_applied` — post-acceptance hook (votes, auto-receive,
      re-mining) run before parked dependents are retried.
    """

    #: Human-readable paradigm tag ("blockchain", "dag-lattice", ...).
    paradigm: str = "abstract"

    @abc.abstractmethod
    def artifact_key(self, artifact: Any) -> Hashable:
        """Identity of ``artifact`` (block id / block hash / tx hash)."""

    def is_known(self, key: Hashable) -> bool:
        """Whether the replica already integrated ``key``."""
        return False

    @abc.abstractmethod
    def missing_dependency(self, artifact: Any) -> Optional[Hashable]:
        """Key of the artifact this one needs first, if absent."""

    @abc.abstractmethod
    def integrate(self, artifact: Any) -> bool:
        """Validate + apply; ``True`` iff accepted into the ledger."""

    def on_applied(self, artifact: Any) -> None:
        """Post-acceptance consensus actions (default: none)."""

    def counters(self) -> Dict[str, float]:
        """Engine-level counters (votes, view changes, QCs formed, ...).

        :meth:`ProtocolNode.layer_counters` merges these under the
        ``consensus.*`` namespace, mirroring ``transport.*`` /
        ``intake.*``, so they aggregate into ``LedgerStats.extra``
        through :func:`aggregate_layer_counters` with no adapter code.
        Engines without quorum machinery keep the empty default.
        """
        return {}


def protocol_nodes(nodes: Any) -> List[Any]:
    """The subset of ``nodes`` running on the protocol stack.

    Keys on the stack interface (a ``consensus`` engine plus the two
    layers), not on concrete classes, so callers in ``repro.core`` /
    ``repro.check`` / ``repro.faults`` never need paradigm imports.
    """
    from repro.protocol.node import ProtocolNode

    return [n for n in nodes if isinstance(n, ProtocolNode)]


def aggregate_layer_counters(nodes: Any) -> dict:
    """Sum per-layer counters over every stack node in ``nodes``.

    The deployment-wide view of transport/intake activity that flows
    into fault reports and ledger metrics — one flat ``layer.metric``
    namespace (see :meth:`ProtocolNode.layer_counters`).
    """
    totals: dict = {}
    for node in protocol_nodes(nodes):
        for name, value in node.layer_counters().items():
            totals[name] = totals.get(name, 0.0) + value
    if totals:
        # The sigcache is process-global (every replica shares it, as
        # every Bitcoin Core thread shares one sigcache), so its
        # accounting joins the aggregate view once — not per node.
        from repro.crypto.keys import sigcache_counters

        for name, value in sigcache_counters().items():
            totals[name] = float(value)
    return totals
