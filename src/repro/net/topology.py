"""Topology builders.

Public DLT networks are unstructured peer-to-peer graphs; we provide the
three standard shapes used in protocol studies: complete (tiny control
experiments), random regular (uniform degree, the usual gossip model) and
Watts-Strogatz small world (clustering + shortcuts, closest to measured
overlay topologies).

Every builder checks the requested shape first and refuses a bad one
with :class:`ValueError`.  The complete graph enumerates its own pairs;
networkx is imported only by the random and path builders that need it.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, List, Optional, Tuple

from repro.net.link import LinkParams
from repro.net.network import Network
from repro.net.node import NetworkNode

NodeFactory = Callable[[str], NetworkNode]


def _build(
    network: Network,
    count: int,
    edges: Iterable[Tuple[int, int]],
    factory: NodeFactory,
    link_params: Optional[LinkParams],
) -> List[NetworkNode]:
    """Nodes ``n0 .. n{count-1}`` in index order, then one link per edge."""
    nodes: List[NetworkNode] = []
    for index in range(count):
        node = factory(f"n{index}")
        network.add_node(node)
        nodes.append(node)
    for a, b in edges:
        network.connect(f"n{a}", f"n{b}", link_params)
    return nodes


def _need_nodes(count: int) -> None:
    if count < 1:
        raise ValueError(f"need at least one node (got {count})")


def complete_topology(
    network: Network,
    count: int,
    factory: NodeFactory,
    link_params: Optional[LinkParams] = None,
) -> List[NetworkNode]:
    """Every node linked to every other — one-hop propagation.

    Pairs come in ``networkx.complete_graph`` edge order: ``(0, 1),
    (0, 2), ..., (1, 2), ...``.
    """
    _need_nodes(count)
    return _build(network, count, combinations(range(count), 2), factory,
                  link_params)


def random_regular_topology(
    network: Network,
    count: int,
    degree: int,
    factory: NodeFactory,
    link_params: Optional[LinkParams] = None,
    seed: int = 0,
) -> List[NetworkNode]:
    """Random graph where every node has exactly ``degree`` peers."""
    if degree < 0 or count <= degree:
        raise ValueError(
            f"count must exceed degree >= 0 (got count={count}, "
            f"degree={degree})")
    if count * degree % 2:
        raise ValueError(
            f"count * degree must be even (got {count} * {degree})")
    import networkx as nx

    graph = nx.random_regular_graph(degree, count, seed=seed)
    return _build(network, count, graph.edges(), factory, link_params)


def small_world_topology(
    network: Network,
    count: int,
    factory: NodeFactory,
    k: int = 4,
    rewire_p: float = 0.3,
    link_params: Optional[LinkParams] = None,
    seed: int = 0,
) -> List[NetworkNode]:
    """Watts-Strogatz small-world graph (connected variant)."""
    if not 2 <= k <= count:
        raise ValueError(
            f"need 2 <= k <= count (got k={k}, count={count})")
    if not 0.0 <= rewire_p <= 1.0:
        raise ValueError(f"rewire_p must be in [0, 1] (got {rewire_p})")
    import networkx as nx

    graph = nx.connected_watts_strogatz_graph(count, k, rewire_p, seed=seed)
    return _build(network, count, graph.edges(), factory, link_params)


def line_topology(
    network: Network,
    count: int,
    factory: NodeFactory,
    link_params: Optional[LinkParams] = None,
) -> List[NetworkNode]:
    """A path graph — worst-case propagation diameter, useful in tests."""
    _need_nodes(count)
    import networkx as nx

    return _build(network, count, nx.path_graph(count).edges(), factory,
                  link_params)
