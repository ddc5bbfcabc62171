"""Reference implementations the routing tests check the library against."""

import pytest


def networkx_distances(topology, origin) -> dict:
    """networkx's Dijkstra distances from ``origin`` over the directed
    cost graph of ``topology``, built from :meth:`Topology.links`.

    networkx is a test dependency only, so a test that asks for this
    oracle is skipped where it is not installed.
    """
    nx = pytest.importorskip("networkx")
    graph = nx.DiGraph()
    graph.add_nodes_from(topology.nodes)
    for link in topology.links():
        graph.add_edge(link.a, link.b, cost=link.cost_ab)
        graph.add_edge(link.b, link.a, cost=link.cost_ba)
    return nx.single_source_dijkstra_path_length(graph, origin, weight="cost")
