"""Cross-paradigm parity matrix (``pytest -m parity``).

Every node type on the shared protocol stack gets the same treatment:
ten artifacts emitted from a never-faulted node under one of four fault
scenarios (baseline / churn / partition / blackhole).  The stack's
contract — offline republish, dependency parking, retry on arrival,
revival on heal and restart, together with the gossip layer's own
park-and-retry — must produce **eventual delivery**: identical replica
state everywhere and zero stuck intake entries, regardless of paradigm.

This is the matrix ISSUE 5 asks for: before the stack, each node class
hand-rolled its own buffer loop and each paradigm failed these scenarios
in its own way (NanoNode only gained republish-on-reconnect after the
fuzzer caught it; TangleNode's pending-parent buffer grew without bound
and never revived on heal; BlockchainNode leaned on the ChainStore
orphan pool below the stats counters).
"""

import hashlib
import random

import pytest

from repro.check.monitor import intake_backlog
from repro.common.types import Hash
from repro.consensus import BftNode, BftPayment
from repro.crypto.keys import KeyPair
from repro.faults import FaultInjector
from repro.net.link import FAST_LINK
from repro.net.message import Message
from repro.net.network import Network
from repro.net.sharded_plane import ShardedMessagePlane
from repro.net.topology import complete_topology
from repro.protocol import protocol_nodes
from repro.sim.simulator import Simulator
from repro.blockchain.block import build_genesis_with_allocations
from repro.blockchain.node import MSG_BLOCK, BlockchainNode
from repro.blockchain.params import BITCOIN
from repro.dag.byteball_node import ByteballNode
from repro.dag.node import NanoNode
from repro.dag.params import NanoParams
from repro.dag.tangle_node import TangleNode

pytestmark = pytest.mark.parity

NODE_COUNT = 5
ARTIFACTS = 10
#: Artifact i is emitted at t = 1 + 2i (all inside the fault windows).
EMIT_TIMES = [1.0 + 2.0 * i for i in range(ARTIFACTS)]
#: Gossip's retransmit backoff tops out at 30s; healed/restarted nodes
#: are kicked immediately, so this settles every scenario with margin.
SETTLE_UNTIL = 150.0


# ---------------------------------------------------------------------------
# Fault scenarios (node n0 — the emitter — is never faulted)
# ---------------------------------------------------------------------------


def no_faults(injector):
    pass


def churn_faults(injector):
    injector.crash_at(4.0, "n3", duration_s=8.0)
    injector.crash_at(9.0, "n4", duration_s=8.0)


def partition_faults(injector):
    injector.partition_at(3.0, [["n0", "n1", "n2"], ["n3", "n4"]], heal_after_s=12.0)


def blackhole_faults(injector):
    injector.blackhole_at(3.0, "n0", "n3", duration_s=12.0)
    injector.blackhole_at(3.0, "n1", "n4", duration_s=12.0)


SCENARIOS = {
    "baseline": no_faults,
    "churn": churn_faults,
    "partition": partition_faults,
    "blackhole": blackhole_faults,
}


# ---------------------------------------------------------------------------
# Paradigm harnesses: build() -> (simulator, network, nodes, emit, state)
# where emit(i) creates artifact i on n0 and state(node) is the replica
# state that must converge.
# ---------------------------------------------------------------------------


def build_blockchain(seed, plane=None):
    key = KeyPair.from_seed(bytes([1]) * 32)
    genesis = build_genesis_with_allocations({key.address: 1_000_000})
    sim = Simulator(seed=seed)
    net = plane(sim) if plane is not None else Network(sim)
    factory = lambda nid: BlockchainNode(nid, BITCOIN, genesis)  # noqa: E731
    nodes = protocol_nodes(complete_topology(net, NODE_COUNT, factory, FAST_LINK))
    producer = nodes[0]

    def emit(i):
        # Slot-style manual production (no PoW lottery): deterministic,
        # and every block still travels the full stack like a mined one.
        block = producer.create_block_template(timestamp=sim.now, proposer=key.address)
        producer.receive_block(block)
        producer.transport.publish(
            block,
            Message(kind=MSG_BLOCK, payload=block,
                    size_bytes=block.size_bytes, dedup_key=block.block_id),
        )

    def state(node):
        return tuple(b.block_id for b in node.chain.main_chain())

    return sim, net, nodes, emit, state


def build_nano(seed, plane=None):
    params = NanoParams(work_difficulty=1)
    sim = Simulator(seed=seed)
    net = plane(sim) if plane is not None else Network(sim)
    factory = lambda nid: NanoNode(nid, params)  # noqa: E731
    nodes = protocol_nodes(complete_topology(net, NODE_COUNT, factory, FAST_LINK))
    genesis_key = KeyPair.from_seed(bytes([2]) * 32)
    genesis = nodes[0].seed_genesis(genesis_key, supply=10**12)
    nodes[0].add_account(genesis_key)
    for node in nodes[1:]:
        node.lattice.install_genesis(genesis)
    rng = random.Random(99)
    destinations = [KeyPair.generate(rng).address for _ in range(ARTIFACTS)]

    def emit(i):
        nodes[0].send_payment(genesis_key.address, destinations[i], 1_000)

    def state(node):
        return frozenset(node.lattice._blocks)  # noqa: SLF001

    return sim, net, nodes, emit, state


def build_tangle(seed, plane=None):
    sim = Simulator(seed=seed)
    net = plane(sim) if plane is not None else Network(sim)
    factory = lambda nid: TangleNode(nid, seed=int(nid[1:]))  # noqa: E731
    nodes = protocol_nodes(complete_topology(net, NODE_COUNT, factory, FAST_LINK))
    key = KeyPair.from_seed(bytes([3]) * 32)
    genesis = nodes[0].seed_genesis(key)
    for node in nodes[1:]:
        node.install_genesis(genesis)

    def emit(i):
        nodes[0].issue(key, f"tx{i}".encode())

    def state(node):
        return frozenset(node.tangle._txs)  # noqa: SLF001

    return sim, net, nodes, emit, state


def build_byteball(seed, plane=None):
    sim = Simulator(seed=seed)
    net = plane(sim) if plane is not None else Network(sim)
    witness = KeyPair.from_seed(bytes([4]) * 32)
    factory = lambda nid: ByteballNode(nid, [witness.address])  # noqa: E731
    nodes = protocol_nodes(complete_topology(net, NODE_COUNT, factory, FAST_LINK))
    genesis = nodes[0].seed_genesis(witness)
    for node in nodes[1:]:
        node.install_genesis(genesis)

    def emit(i):
        nodes[0].issue(witness, f"u{i}".encode())

    def state(node):
        return frozenset(node.dag._units)  # noqa: SLF001

    return sim, net, nodes, emit, state


def build_bft(seed, plane=None):
    sim = Simulator(seed=seed)
    net = plane(sim) if plane is not None else Network(sim)
    # One payment per block (max_batch=1): every emitted artifact becomes
    # its own committed entry, matching the matrix's `> ARTIFACTS` bar.
    factory = lambda nid: BftNode(nid, max_batch=1)  # noqa: E731
    nodes = protocol_nodes(complete_topology(net, NODE_COUNT, factory, FAST_LINK))
    roster = [n.node_id for n in nodes]
    for node in nodes:
        node.configure_validators(roster)
        node.fund({i: 1_000_000 for i in range(NODE_COUNT)})
        node.start()

    def emit(i):
        payment = BftPayment(
            payment_id=Hash(hashlib.sha256(f"parity:{i}".encode()).digest()),
            sender=i % NODE_COUNT,
            recipient=(i + 1) % NODE_COUNT,
            amount=10 + i,
        )
        nodes[0].submit_payment(payment)

    def state(node):
        return tuple(node.committed)

    return sim, net, nodes, emit, state


PARADIGMS = {
    "blockchain": build_blockchain,
    "nano": build_nano,
    "tangle": build_tangle,
    "byteball": build_byteball,
    "bft": build_bft,
}


# ---------------------------------------------------------------------------
# The matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("paradigm", sorted(PARADIGMS))
def test_eventual_delivery(paradigm, scenario):
    sim, net, nodes, emit, state = PARADIGMS[paradigm](seed=7)
    injector = FaultInjector(net)
    SCENARIOS[scenario](injector)
    for i, t in enumerate(EMIT_TIMES):
        sim.schedule_at(t, lambda i=i: emit(i), label=f"emit:{i}")
    sim.run(until=SETTLE_UNTIL)

    reference = state(nodes[0])
    assert len(reference) > ARTIFACTS  # genesis + every emitted artifact
    for node in nodes[1:]:
        assert state(node) == reference, f"{node.node_id} diverged under {scenario}"
    assert intake_backlog(nodes) == {}, "stuck intake entries after settling"


#: Gossip paradigms only: BFT quorum traffic is point-to-point, which
#: the crowd plane deliberately rejects (see build_deployment).
GOSSIP_PARADIGMS = ("blockchain", "byteball", "nano", "tangle")


def _sharded_plane(sim):
    return ShardedMessagePlane(sim, total_nodes=50, shards=2,
                               link=FAST_LINK, seed=321)


@pytest.mark.parametrize("paradigm", sorted(GOSSIP_PARADIGMS))
def test_sharded_plane_column(paradigm):
    """The matrix's sharded column: the same replicas carried by a
    50-node :class:`ShardedMessagePlane` crowd settle to the exact
    plane's replica state with zero stuck intake — every broadcast is a
    real crowd propagation, not a direct link."""
    sim, net, nodes, emit, state = PARADIGMS[paradigm](seed=7)
    for i, t in enumerate(EMIT_TIMES):
        sim.schedule_at(t, lambda i=i: emit(i), label=f"emit:{i}")
    sim.run(until=SETTLE_UNTIL)
    exact_reference = state(nodes[0])

    sim2, net2, nodes2, emit2, state2 = PARADIGMS[paradigm](
        seed=7, plane=_sharded_plane)
    for i, t in enumerate(EMIT_TIMES):
        sim2.schedule_at(t, lambda i=i: emit2(i), label=f"emit:{i}")
    sim2.run(until=SETTLE_UNTIL)
    assert state2(nodes2[0]) == exact_reference, \
        f"{paradigm} replica state drifted between planes"
    for node in nodes2[1:]:
        assert state2(node) == exact_reference, \
            f"{node.node_id} diverged on the sharded plane"
    assert intake_backlog(nodes2) == {}, \
        "stuck intake entries on the sharded plane"
    assert net2.plane_stats()["messages_modeled"] > 0


@pytest.mark.parametrize("paradigm", sorted(PARADIGMS))
def test_layer_counters_flow_through_fault_injector(paradigm):
    """The per-layer counters every paradigm now exposes are visible
    through the shared interfaces (no isinstance on concrete nodes)."""
    sim, net, nodes, emit, state = PARADIGMS[paradigm](seed=11)
    injector = FaultInjector(net)
    partition_faults(injector)
    for i, t in enumerate(EMIT_TIMES):
        sim.schedule_at(t, lambda i=i: emit(i), label=f"emit:{i}")
    sim.run(until=SETTLE_UNTIL)
    counters = injector.protocol_counters()
    assert counters["transport.published"] >= ARTIFACTS
    for key in ("intake.parked", "intake.retried", "intake.revived",
                "intake.backlog", "transport.republished"):
        assert key in counters
    assert counters["intake.backlog"] == 0.0
