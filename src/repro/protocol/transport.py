"""The transport layer: publication lifecycle over the gossip fabric.

Any :class:`~repro.protocol.interfaces.MessagePlane` provides the raw
primitives (flooding, retransmit/backoff, online gating) — the exact
``repro.net.Network`` by default, the sharded or aggregate planes
at scale; :class:`TransportLayer` adds the *node-side* publication
contract every paradigm needs: an artifact created while the node is
offline cannot be broadcast (``NetworkNode.broadcast`` is a silent
no-op), so it is queued and republished on reconnect — the fix the
fuzzer forced into ``NanoNode`` (a wallet flushing unconfirmed sends),
now shared by every node type.  Without it, a block/transaction/unit
created during downtime exists only on its author's replica and
per-paradigm heads diverge forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.message import Message
    from repro.net.node import NetworkNode


@dataclass
class TransportCounters:
    """Cumulative per-node publication accounting (feeds metrics/trace)."""

    published: int = 0
    queued_offline: int = 0
    republished: int = 0
    dropped_stale: int = 0
    #: checkpoint state-syncs served or consumed through this transport
    state_syncs: int = 0
    #: wire bytes those state-syncs moved (headers + snapshot + bodies)
    state_sync_bytes: int = 0

    def as_dict(self) -> dict:
        return {
            "transport.published": self.published,
            "transport.queued_offline": self.queued_offline,
            "transport.republished": self.republished,
            "transport.dropped_stale": self.dropped_stale,
            "transport.state_syncs": self.state_syncs,
            "transport.state_sync_bytes": self.state_sync_bytes,
        }


class TransportLayer:
    """Publication front-end of one :class:`~repro.net.node.NetworkNode`.

    ``publish`` gossips a locally created artifact, or queues it while
    the node is offline; ``on_reconnect`` republishes the backlog,
    filtering through ``retain`` (e.g. "still in my ledger") so
    artifacts rolled back during the outage are not resurrected.
    """

    def __init__(
        self,
        node: "NetworkNode",
        retain: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        self._node = node
        self._retain = retain
        self._offline_backlog: List[Tuple[Any, "Message"]] = []
        self.counters = TransportCounters()

    # ---------------------------------------------------------------- queries

    @property
    def offline_backlog(self) -> int:
        """Artifacts queued for republish at the next reconnect."""
        return len(self._offline_backlog)

    # ------------------------------------------------------------ publication

    def publish(self, artifact: Any, message: "Message") -> bool:
        """Broadcast a locally created artifact; queue it when offline.

        Returns ``True`` when the message went out now, ``False`` when
        it was queued for republish-on-reconnect.
        """
        if not self._node.online:
            self._offline_backlog.append((artifact, message))
            self.counters.queued_offline += 1
            return False
        self.counters.published += 1
        self._node.broadcast(message)
        return True

    def on_reconnect(self) -> int:
        """Flush the offline backlog; returns artifacts republished."""
        if not self._offline_backlog:
            return 0
        backlog, self._offline_backlog = self._offline_backlog, []
        republished = 0
        for artifact, message in backlog:
            if self._retain is not None and not self._retain(artifact):
                self.counters.dropped_stale += 1
                continue
            self.counters.republished += 1
            republished += 1
            self._node.broadcast(message)
        return republished
