"""Bootstrap helpers for Nano network experiments.

Building a realistic block-lattice deployment takes several coordinated
steps — a shared genesis, voting weight delegated to online
representatives, user accounts opened on their wallets' nodes.  This
module packages those steps so experiments and examples stay readable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.common.types import Address
from repro.crypto.keys import KeyPair
from repro.net.link import LinkParams
from repro.net.network import Network
from repro.net.topology import complete_topology
from repro.protocol import protocol_nodes
from repro.sim.simulator import Simulator
from repro.trace import Tracer
from repro.dag.blocks import NanoBlock
from repro.dag.node import NanoNode
from repro.dag.params import NanoParams


@dataclass
class NanoTestbed:
    """A ready-to-run Nano deployment."""

    simulator: Simulator
    network: Network
    nodes: List[NanoNode]
    genesis_key: KeyPair
    genesis_block: NanoBlock
    representatives: List[KeyPair]
    #: user account -> node holding its key
    wallets: Dict[Address, NanoNode] = field(default_factory=dict)

    def node_for(self, account: Address) -> NanoNode:
        return self.wallets[account]

    def representative_nodes(self) -> List[NanoNode]:
        return [n for n in self.nodes if n.is_representative]


def build_nano_testbed(
    node_count: int = 8,
    representative_count: int = 4,
    supply: int = 10**15,
    params: Optional[NanoParams] = None,
    link_params: Optional[LinkParams] = None,
    seed: int = 0,
    processing_tps: Optional[float] = None,
    tracer: Optional[Tracer] = None,
    network_factory: Optional[Callable[[Simulator], Network]] = None,
) -> NanoTestbed:
    """Stand up a Nano network with online, weighted representatives.

    The first ``representative_count`` nodes hold representative keys; the
    genesis account delegates its entire weight to the first
    representative, then the harness typically spreads balances (and thus
    weight) with :func:`fund_accounts`.  The nodes form a complete graph
    and auto-receive every send addressed to their accounts.

    ``tracer`` is forwarded to the :class:`Network` (default: a fresh
    :class:`repro.trace.Tracer`).  ``network_factory`` swaps the message
    plane (e.g. the sharded tier) — when given, it owns tracer wiring
    and the ``tracer`` argument must be None.
    """
    if representative_count > node_count:
        raise ValueError("cannot have more representatives than nodes")
    params = params or NanoParams(work_difficulty=1)
    rng = random.Random(seed)
    simulator = Simulator(seed=seed)
    if network_factory is not None:
        if tracer is not None:
            raise ValueError("pass the tracer through network_factory")
        network = network_factory(simulator)
    else:
        network = Network(simulator, tracer=tracer)

    rep_keys = [KeyPair.generate(rng) for _ in range(representative_count)]

    def factory(node_id: str) -> NanoNode:
        index = int(node_id[1:])
        rep_key = rep_keys[index] if index < representative_count else None
        return NanoNode(
            node_id,
            params,
            representative_key=rep_key,
            processing_tps=processing_tps,
        )

    nodes = complete_topology(network, node_count, factory,
                              link_params or LinkParams())
    # Filter on the stack interface; the factory fixes the node type.
    nano_nodes = protocol_nodes(nodes)

    genesis_key = KeyPair.generate(rng)
    first_rep = rep_keys[0].address if rep_keys else genesis_key.address
    genesis_block = nano_nodes[0].lattice.create_genesis(
        genesis_key, supply, representative=first_rep
    )
    nano_nodes[0].add_account(genesis_key)
    for node in nano_nodes[1:]:
        node.lattice.install_genesis(genesis_block)

    online_reps = [k.address for k in rep_keys] or [genesis_key.address]
    for node in nano_nodes:
        for rep in online_reps:
            node.lattice.reps.set_online(rep)

    return NanoTestbed(
        simulator=simulator,
        network=network,
        nodes=nano_nodes,
        genesis_key=genesis_key,
        genesis_block=genesis_block,
        representatives=rep_keys,
    )


def fund_accounts(
    testbed: NanoTestbed,
    count: int,
    amount: int,
    rng: Optional[random.Random] = None,
    settle_time: float = 5.0,
) -> List[KeyPair]:
    """Create ``count`` user accounts, each funded with ``amount``.

    Accounts are assigned round-robin to nodes (their wallets); each gets
    an open block delegating to that node's representative (or the first
    representative).  Runs the simulator long enough for sends and the
    auto-generated receives to settle.
    """
    rng = rng or random.Random(12345)
    genesis_node = testbed.nodes[0]
    genesis_account = testbed.genesis_key.address
    users: List[KeyPair] = []
    for i in range(count):
        user = KeyPair.generate(rng)
        wallet = testbed.nodes[i % len(testbed.nodes)]
        wallet.add_account(user)
        testbed.wallets[user.address] = wallet
        users.append(user)
        genesis_node.send_payment(genesis_account, user.address, amount)
        # Let each send propagate before the next spends the new head.
        testbed.simulator.run(until=testbed.simulator.now + settle_time)
    return users
