"""Transaction-confirmation confidence models (Section IV).

Blockchain: the probability that an attacker rewrites history falls
geometrically with confirmation depth (:mod:`repro.confirmation.nakamoto`),
and honest soft forks orphan recent blocks at a rate set by propagation
delay vs. block interval (:mod:`repro.confirmation.orphan`).  DAG:
confidence is the voted share of representative weight
(:mod:`repro.confirmation.dag_confirmation`).
"""
