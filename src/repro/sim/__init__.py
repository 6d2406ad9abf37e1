"""Discrete-event simulation substrate.

Network experiments (fork rates, confirmation latency, TPS under load)
run on a simulated clock so that a week of Bitcoin block production costs
milliseconds of wall time.  The simulator is a plain priority-queue event
loop with deterministic tie-breaking and seeded randomness.
"""

from repro.sim.events import Event, EventQueue
from repro.sim.sharded import ShardedConfig, ShardedPropagation, ShardedResult
from repro.sim.simulator import Simulator

__all__ = [
    "Event",
    "EventQueue",
    "ShardedConfig",
    "ShardedPropagation",
    "ShardedResult",
    "Simulator",
]
