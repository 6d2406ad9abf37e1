"""The paper's contribution: a uniform lens over both DLT paradigms.

:mod:`repro.core.ledger` defines the paradigm-agnostic :class:`Ledger`
interface; :mod:`repro.core.adapters` implements it for a blockchain
deployment and a block-lattice deployment; :mod:`repro.core.comparison`
runs the same workload through both and produces the paper's
five-dimension comparison; :mod:`repro.core.experiment` registers every
reproduced figure/claim.
"""
