"""Simulated peer-to-peer network.

Nodes exchange messages over links with configurable latency, bandwidth
and loss; broadcast uses gossip flooding with duplicate suppression —
the propagation model whose delays create the soft forks of Section IV
and bound the throughput of Section VI.

Three message planes implement the
:class:`repro.protocol.interfaces.MessagePlane` contract: the exact
:class:`Network` (reference), the :class:`ShardedMessagePlane` (full
protocol traffic over an epoch-barrier crowd, 10^4-10^6 nodes) and the
mean-field aggregate tier (:class:`AggregateCluster` /
:func:`attach_clusters`, one infection law at every population).
"""

from repro.net.aggregate import (
    AggregateCluster,
    TopologyScale,
    attach_clusters,
    validate_aggregate_model,
)
from repro.net.link import LinkParams
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import NetworkNode
from repro.net.sharded_plane import ShardedMessagePlane
from repro.net.topology import complete_topology, random_regular_topology, small_world_topology

__all__ = [
    "AggregateCluster",
    "LinkParams",
    "Message",
    "Network",
    "NetworkNode",
    "ShardedMessagePlane",
    "TopologyScale",
    "attach_clusters",
    "complete_topology",
    "random_regular_topology",
    "small_world_topology",
    "validate_aggregate_model",
]
