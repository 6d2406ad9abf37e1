"""Synthetic payment workloads.

Payment traffic in public ledgers is heavy-tailed: a few hot services
account for most transfers.  The generator draws senders/recipients from
a Zipf popularity distribution (``alpha=0`` degenerates to uniform) and
arrival times from a Poisson process, which is what the scalability and
ledger-growth benches feed to both paradigms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Sequence, Tuple

from repro.common.rng import exponential, weighted_choice, zipf_weights

if TYPE_CHECKING:  # pragma: no cover - layering guard, net types only
    from repro.net.message import Message
    from repro.net.node import NetworkNode
    from repro.sim.simulator import Simulator


@dataclass(frozen=True)
class PaymentEvent:
    """One intended transfer, paradigm-agnostic."""

    time_s: float
    sender_index: int
    recipient_index: int
    amount: int


class PaymentWorkload:
    """Poisson arrivals with Zipf-popular endpoints.

    >>> wl = PaymentWorkload(accounts=10, rate_tps=5.0, seed=1)
    >>> events = wl.generate(duration_s=10.0)
    >>> all(e.sender_index != e.recipient_index for e in events)
    True
    """

    def __init__(
        self,
        accounts: int,
        rate_tps: float,
        zipf_alpha: float = 0.8,
        min_amount: int = 1,
        max_amount: int = 1_000,
        seed: int = 0,
    ) -> None:
        if accounts < 2:
            raise ValueError("need at least two accounts")
        if rate_tps <= 0:
            raise ValueError("rate must be positive")
        if min_amount < 1 or max_amount < min_amount:
            raise ValueError("invalid amount range")
        self.accounts = accounts
        self.rate_tps = rate_tps
        self.min_amount = min_amount
        self.max_amount = max_amount
        self._weights = zipf_weights(accounts, zipf_alpha)
        self._indices = list(range(accounts))
        self._rng = random.Random(seed)

    @classmethod
    def from_rng(
        cls,
        rng: random.Random,
        accounts: int,
        rate_tps: float,
        zipf_alpha: float = 0.8,
        min_amount: int = 1,
        max_amount: int = 1_000,
    ) -> "PaymentWorkload":
        """Build a workload driven by an externally forked RNG stream.

        The fuzzer (``repro.check``) forks one labelled stream per
        component from a master seed; injecting it here means payment
        draws stay reproducible without perturbing any other stream.
        """
        workload = cls(
            accounts=accounts,
            rate_tps=rate_tps,
            zipf_alpha=zipf_alpha,
            min_amount=min_amount,
            max_amount=max_amount,
        )
        workload._rng = rng
        return workload

    def _pick_pair(self) -> tuple:
        sender = weighted_choice(self._rng, self._indices, self._weights)
        recipient = sender
        while recipient == sender:
            recipient = weighted_choice(self._rng, self._indices, self._weights)
        return sender, recipient

    def events(self, duration_s: float) -> Iterator[PaymentEvent]:
        """Stream events over [0, duration)."""
        t = 0.0
        while True:
            t += exponential(self._rng, self.rate_tps)
            if t >= duration_s:
                return
            sender, recipient = self._pick_pair()
            yield PaymentEvent(
                time_s=t,
                sender_index=sender,
                recipient_index=recipient,
                amount=self._rng.randint(self.min_amount, self.max_amount),
            )

    def generate(self, duration_s: float) -> List[PaymentEvent]:
        return list(self.events(duration_s))

    def generate_count(self, count: int) -> List[PaymentEvent]:
        """Exactly ``count`` events (duration open-ended)."""
        out: List[PaymentEvent] = []
        t = 0.0
        for _ in range(count):
            t += exponential(self._rng, self.rate_tps)
            sender, recipient = self._pick_pair()
            out.append(
                PaymentEvent(
                    time_s=t,
                    sender_index=sender,
                    recipient_index=recipient,
                    amount=self._rng.randint(self.min_amount, self.max_amount),
                )
            )
        return out


def gossip_workload(
    simulator: "Simulator",
    nodes: Sequence["NetworkNode"],
    rate_tps: float,
    duration_s: float,
    size_bytes: int = 256,
    kind: str = "gossip",
) -> List[Tuple[float, str, "Message"]]:
    """Schedule Poisson-timed broadcasts from rotating origin nodes.

    The fault-tolerance experiments feed this through a degraded
    network: each record is one message flooded from one origin.  The
    returned list is *live* — it is populated as the simulation runs,
    and only contains broadcasts that actually fired (an origin that is
    offline at fire time skips its slot, like a crashed gossip source).
    Draws come from a forked ``gossip-workload`` stream, so adding this
    workload does not perturb other components' randomness.
    """
    if rate_tps <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    from repro.net.message import Message

    rng = simulator.fork_rng("gossip-workload")
    sent: List[Tuple[float, str, Message]] = []
    t = 0.0
    index = 0
    while True:
        t += exponential(rng, rate_tps)
        if t >= duration_s:
            return sent
        origin = nodes[index % len(nodes)]
        index += 1

        def fire(origin=origin) -> None:
            if not origin.online:
                return
            message = Message(kind=kind, payload=f"g{len(sent)}",
                              size_bytes=size_bytes)
            sent.append((simulator.now, origin.node_id, message))
            origin.broadcast(message)

        simulator.schedule_at(t, fire, label="workload:gossip")
