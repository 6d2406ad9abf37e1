"""repro — Blockchain vs. DAG distributed-ledger comparison framework.

A working reproduction of Bencic & Podnar Zarko, *"Distributed Ledger
Technology: Blockchain Compared to Directed Acyclic Graph"* (ICDCS 2018):
full simulations of Bitcoin/Ethereum-style blockchains and the Nano
block-lattice, their consensus and confirmation mechanisms, ledger-size
behaviour, and every scaling approach the paper surveys.

Quick start::

    from repro.core.adapters import BlockchainLedger, DagLedger
    from repro.core.comparison import compare_ledgers
    from repro.workloads.generators import PaymentWorkload

    events = PaymentWorkload(accounts=10, rate_tps=0.05, seed=1).generate(600)
    report = compare_ledgers(
        BlockchainLedger(), DagLedger(), events,
        accounts=10, initial_balance=1_000_000,
    )
    print(report.render())

Import every name from its defining module.  The package ``__init__``
files re-export nothing (except :mod:`repro.protocol`,
:mod:`repro.common` and :mod:`repro.crypto`, which every node loads
anyway), so a deployment loads only the modules it runs.
"""

__version__ = "1.0.0"
