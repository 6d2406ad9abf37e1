"""Discrete-event simulation substrate.

Network experiments (fork rates, confirmation latency, TPS under load)
run on a simulated clock so that a week of Bitcoin block production costs
milliseconds of wall time.  The simulator is a plain priority-queue event
loop with deterministic tie-breaking and seeded randomness
(:mod:`repro.sim.simulator`); :mod:`repro.sim.sharded` is the numpy
epoch-barrier kernel of the 10^4-10^6-node scale tier.
"""
