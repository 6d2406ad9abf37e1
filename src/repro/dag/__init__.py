"""Nano-style block-lattice DAG (Sections II-B, III-B, IV-B, V-B, VI-B).

Every account owns its own chain; a node in the DAG holds exactly one
transaction.  Transfers take a *send* block on the sender's chain and a
matching *receive* block on the recipient's chain.  Conflicts are
resolved by weighted representative voting (Open Representative Voting),
not leader election.
"""
