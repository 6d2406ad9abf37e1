"""Simulated peer-to-peer network.

Nodes exchange messages over links with configurable latency, bandwidth
and loss; broadcast uses gossip flooding with duplicate suppression —
the propagation model whose delays create the soft forks of Section IV
and bound the throughput of Section VI.

Three message planes implement the
:class:`repro.protocol.interfaces.MessagePlane` contract: the exact
:class:`repro.net.network.Network` (reference), the
:class:`repro.net.sharded_plane.ShardedMessagePlane` (full protocol
traffic over an epoch-barrier crowd, 10^4-10^6 nodes) and the mean-field
aggregate tier in :mod:`repro.net.aggregate` (one infection law at every
population).  Import each from its defining module: this package
re-exports nothing, so the exact plane never loads numpy, which only the
two scaled planes use.
"""
