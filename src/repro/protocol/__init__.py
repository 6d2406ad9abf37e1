"""The layered, paradigm-agnostic protocol stack.

Every node implementation — blockchain (PoW/PoS), Nano block-lattice,
IOTA-style tangle, Byteball-style witnessed DAG — is the same abstract
machine (Section II: a replicated "transaction-based state machine"),
differing only in its consensus rule.  This package makes that layering
explicit:

``MessagePlane``
    the structural contract of the fabric nodes publish into
    (publish/deliver/seen/retransmit semantics plus layer counters);
    the exact ``repro.net.Network`` is its reference implementation,
    and the sharded / aggregate tiers implement it too so the
    same stack scales to 10^5-10^6 nodes;

``TransportLayer``
    peer send/broadcast, online/offline lifecycle, and
    republish-on-reconnect of locally created artifacts;

``IntakeLayer``
    the unified parked/unchecked/orphan buffer: artifacts whose
    dependency has not arrived yet are parked under the missing key,
    retried when it shows up, revived on heal/restart, and bounded in
    memory;

``ConsensusEngine``
    the paradigm-specific piece (chain selection, ORV elections, tip
    selection) behind a uniform ingest interface.

Layering contract (enforced by ``scripts/check_layering.py``): this
package never imports ``repro.blockchain``, ``repro.dag``,
``repro.core`` or ``repro.check`` — the paradigm packages build *on* the
stack, not the other way around.
"""

from repro.protocol.interfaces import (
    ConsensusEngine,
    MessagePlane,
    aggregate_layer_counters,
    protocol_nodes,
)
from repro.protocol.intake import DEFAULT_INTAKE_CAPACITY, IntakeCounters, IntakeLayer
from repro.protocol.node import ProtocolNode
from repro.protocol.transport import TransportCounters, TransportLayer

__all__ = [
    "DEFAULT_INTAKE_CAPACITY",
    "ConsensusEngine",
    "IntakeCounters",
    "IntakeLayer",
    "MessagePlane",
    "ProtocolNode",
    "TransportCounters",
    "TransportLayer",
    "aggregate_layer_counters",
    "protocol_nodes",
]
