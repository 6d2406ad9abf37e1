"""Open-loop traffic injection into a live deployment.

``Ledger.run_workload`` is *closed-loop*: it advances the simulation to
each event's timestamp, so submission can never outpace the ledger.  A
sustained-service measurement needs the opposite — an arrival process
that does not care whether the system keeps up (offered load vs carried
load, the Section VI saturation picture).  :class:`OpenLoopInjector`
rides a ``schedule_periodic`` tick inside the deployment's own
simulator and submits every Poisson arrival whose timestamp has come
due, whether or not earlier traffic confirmed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from repro.workloads.generators import PaymentEvent, PaymentWorkload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.ledger import Ledger

#: Default drain tick: fine enough that several arrivals rarely share a
#: tick at the loads the benches sweep, coarse enough to stay cheap.
DEFAULT_TICK_S = 0.25


@dataclass
class OpenLoopReport:
    """What the injector offered vs what the ledger accepted."""

    offered: int = 0
    submitted: int = 0
    rejected: int = 0

    @property
    def backpressure_fraction(self) -> float:
        """Share of offered traffic the ledger refused (admission
        control, underfunded senders, unreachable nodes)."""
        return self.rejected / self.offered if self.offered else 0.0


class OpenLoopInjector:
    """Poisson arrivals over Zipf accounts, injected at wall-clock rate.

    The workload stream is drawn lazily (one-event lookahead), so a long
    soak never materializes its full schedule in memory.
    """

    def __init__(
        self,
        ledger: "Ledger",
        workload: PaymentWorkload,
        duration_s: float,
        tick_s: float = DEFAULT_TICK_S,
    ) -> None:
        if duration_s <= 0 or tick_s <= 0:
            raise ValueError("duration and tick must be positive")
        self.ledger = ledger
        self.workload = workload
        self.duration_s = duration_s
        self.tick_s = tick_s
        self.report = OpenLoopReport()
        self._events: Optional[Iterator[PaymentEvent]] = None
        self._lookahead: Optional[PaymentEvent] = None
        self._start_time: Optional[float] = None

    @classmethod
    def from_sim_stream(
        cls,
        ledger: "Ledger",
        accounts: int,
        rate_tps: float,
        duration_s: float,
        zipf_alpha: float = 0.8,
        tick_s: float = DEFAULT_TICK_S,
        stream: str = "open-loop-workload",
    ) -> "OpenLoopInjector":
        """Injector whose draws come from a forked simulator stream, so
        adding open-loop traffic perturbs no other component's RNG."""
        if ledger.simulator is None:
            raise ValueError("open-loop injection needs a deployment past setup()")
        rng: random.Random = ledger.simulator.fork_rng(stream)
        workload = PaymentWorkload.from_rng(
            rng, accounts=accounts, rate_tps=rate_tps, zipf_alpha=zipf_alpha
        )
        return cls(ledger, workload, duration_s, tick_s=tick_s)

    def start(self) -> None:
        """Arm the periodic drain on the deployment's simulator.

        Must be called after ``ledger.setup``; traffic is offered over
        ``[now, now + duration_s)`` as the caller advances the sim.
        """
        simulator = self.ledger.simulator
        if simulator is None:
            raise ValueError("open-loop injection needs a deployment past setup()")
        self._start_time = simulator.now
        self._events = self.workload.events(self.duration_s)
        self._lookahead = next(self._events, None)
        # One trailing tick past the horizon so arrivals just under
        # ``duration_s`` are still drained.
        simulator.schedule_periodic(
            self.tick_s,
            self._tick,
            until=self._start_time + self.duration_s + self.tick_s,
        )

    def _tick(self) -> None:
        assert self._events is not None and self._start_time is not None
        elapsed = self.ledger.simulator.now - self._start_time
        while self._lookahead is not None and self._lookahead.time_s <= elapsed:
            event = self._lookahead
            self._lookahead = next(self._events, None)
            self.report.offered += 1
            if self.ledger.submit(event) is None:
                self.report.rejected += 1
            else:
                self.report.submitted += 1
