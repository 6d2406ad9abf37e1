"""Base network node."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.protocol.interfaces import MessagePlane


class NetworkNode:
    """A participant attached to a message plane.

    The plane is usually the exact :class:`~repro.net.network.Network`,
    but nodes only rely on the
    :class:`~repro.protocol.interfaces.MessagePlane` contract, so the
    same node runs unchanged on the sharded or aggregate tiers.
    Subclasses (blockchain nodes, DAG nodes, channel parties...) override
    :meth:`handle_message`.  Traffic counters feed the per-node load
    analysis of Section VI (the "consumer hardware" centralization
    argument).
    """

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self.network: Optional["MessagePlane"] = None
        self.online = True
        self.bytes_received = 0
        self.bytes_sent = 0
        self.messages_received = 0
        self.messages_sent = 0

    # ------------------------------------------------------------- lifecycle

    def attached(self, network: "MessagePlane") -> None:
        """Called by the network when the node joins."""
        self.network = network

    def set_online(self, online: bool) -> None:
        """Offline nodes silently drop traffic (Section II-B: a Nano node
        must be online to receive).  Coming back online nudges the
        network to retry gossip that was parked while we were away."""
        was_online = self.online
        self.online = online
        if online and not was_online and self.network is not None:
            self.network.kick_retries(dst=self.node_id)

    def on_partition_heal(self) -> None:
        """Called by the network after a partition heals.  Base nodes do
        nothing; stack nodes (``repro.protocol``) revive parked intake
        artifacts whose dependency may now be reachable."""

    # ----------------------------------------------------------------- sends

    def send(self, peer_id: str, message: Message) -> None:
        if self.network is None:
            raise RuntimeError(f"node {self.node_id} is not attached to a network")
        if not self.online:
            return  # an offline node neither receives nor transmits
        self.bytes_sent += message.wire_size
        self.messages_sent += 1
        self.network.transmit(self.node_id, peer_id, message)

    def send_reliable(self, peer_id: str, message: Message) -> None:
        """Like :meth:`send`, but lost transmissions are retried with the
        network's backoff policy until delivered or the attempt budget is
        exhausted — the retransmit primitive fault-tolerant protocols
        build on."""
        if self.network is None:
            raise RuntimeError(f"node {self.node_id} is not attached to a network")
        if not self.online:
            return
        self.bytes_sent += message.wire_size
        self.messages_sent += 1
        self.network.transmit_reliable(self.node_id, peer_id, message)

    def broadcast(self, message: Message) -> None:
        """Gossip ``message`` to the whole network via flooding."""
        if self.network is None:
            raise RuntimeError(f"node {self.node_id} is not attached to a network")
        if not self.online:
            return
        self.network.gossip(self.node_id, message)

    # --------------------------------------------------------------- receive

    def deliver(self, sender_id: str, message: Message) -> None:
        """Entry point invoked by the network; applies online gating."""
        if not self.online:
            return
        self.bytes_received += message.wire_size
        self.messages_received += 1
        self.handle_message(sender_id, message)

    def deliver_batch(self, items) -> None:
        """Deliver the ``(sender, message)`` direct sends that reach this
        node at one instant — how every :meth:`send` / :meth:`send_reliable`
        arrives, a lone message being a one-item burst: :meth:`deliver`
        per item, in order.
        """
        for sender_id, message in items:
            self.deliver(sender_id, message)

    def handle_message(self, sender_id: str, message: Message) -> None:
        """Application hook — override in subclasses."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.node_id})"
