"""Unit tests for the Dijkstra implementation."""

import heapq

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.experiments.config import make_random50_setup
from repro.routing.dijkstra import (
    shortest_path,
    shortest_path_tree,
    shortest_paths_from,
)
from repro.topology.model import Topology
from tests.oracles import networkx_distances
from tests.property.strategies import connected_topologies


def diamond() -> Topology:
    """0 -> {1, 2} -> 3 with asymmetric costs.

    Forward: 0-1-3 costs 1+1=2, 0-2-3 costs 2+2=4.
    Backward: 3-1-0 costs 5+5=10, 3-2-0 costs 1+1=2.
    """
    topology = Topology(name="diamond")
    for node in range(4):
        topology.add_router(node)
    topology.add_link(0, 1, 1, 5)
    topology.add_link(1, 3, 1, 5)
    topology.add_link(0, 2, 2, 1)
    topology.add_link(2, 3, 2, 1)
    return topology


class TestShortestPaths:
    def test_distances(self):
        distance, _ = shortest_paths_from(diamond(), 0)
        assert distance == {0: 0.0, 1: 1.0, 2: 2.0, 3: 2.0}

    def test_asymmetric_reverse_distances(self):
        distance, _ = shortest_paths_from(diamond(), 3)
        assert distance[0] == 2.0  # via node 2, not node 1

    def test_predecessors_give_forward_path(self):
        assert shortest_path(diamond(), 0, 3) == [0, 1, 3]

    def test_reverse_path_differs(self):
        assert shortest_path(diamond(), 3, 0) == [3, 2, 0]

    def test_path_to_self(self):
        paths = shortest_path_tree(diamond(), 0)
        assert paths[0] == [0]

    def test_full_tree_covers_all_nodes(self):
        paths = shortest_path_tree(diamond(), 0)
        assert set(paths) == {0, 1, 2, 3}
        for destination, path in paths.items():
            assert path[0] == 0
            assert path[-1] == destination

    def test_unknown_origin_raises(self):
        from repro.errors import TopologyError

        with pytest.raises(TopologyError):
            shortest_paths_from(diamond(), 99)

    def test_unreachable_destination_raises(self):
        topology = Topology()
        topology.add_router(0)
        topology.add_router(1)
        topology.add_router(2)
        topology.add_link(0, 1)
        with pytest.raises(RoutingError):
            shortest_path(topology, 0, 2)


class TestDeterministicTieBreak:
    def test_equal_cost_paths_prefer_smallest_predecessor(self):
        # Two equal-cost two-hop paths 0-1-3 and 0-2-3: the tie must
        # resolve to predecessor 1 deterministically.
        topology = Topology()
        for node in range(4):
            topology.add_router(node)
        topology.add_link(0, 1, 1, 1)
        topology.add_link(0, 2, 1, 1)
        topology.add_link(1, 3, 1, 1)
        topology.add_link(2, 3, 1, 1)
        assert shortest_path(topology, 0, 3) == [0, 1, 3]

    def test_tie_break_insensitive_to_insertion_order(self):
        # Same graph built with links added in the opposite order.
        topology = Topology()
        for node in range(4):
            topology.add_router(node)
        topology.add_link(2, 3, 1, 1)
        topology.add_link(1, 3, 1, 1)
        topology.add_link(0, 2, 1, 1)
        topology.add_link(0, 1, 1, 1)
        assert shortest_path(topology, 0, 3) == [0, 1, 3]


class TestLargerGraphs:
    def test_line_costs_accumulate(self):
        from repro.topology.random_graphs import line_topology

        line = line_topology(10)
        distance, _ = shortest_paths_from(line, 0)
        assert distance[9] == 9.0

    def test_matches_networkx_on_random_graph(self):
        from repro.topology.random_graphs import random_topology

        topology = random_topology(30, 60, seed=17)
        expected = networkx_distances(topology, 0)
        distance, _ = shortest_paths_from(topology, 0)
        assert distance == pytest.approx(expected)


def reference_shortest_paths(topology: Topology, origin):
    """Dijkstra as written before the adjacency cache: ``neighbors()``
    and ``cost()`` per edge.  An independent reference for the cached
    kernel, which every other routing test now goes through."""
    topology.kind(origin)
    distance = {origin: 0.0}
    predecessor = {origin: None}
    frontier = [(0.0, origin)]
    settled = set()
    while frontier:
        dist, node = heapq.heappop(frontier)
        if node in settled:
            continue
        settled.add(node)
        for neighbor in topology.neighbors(node):
            if neighbor in settled:
                continue
            candidate = dist + topology.cost(node, neighbor)
            best = distance.get(neighbor)
            if best is None or candidate < best:
                distance[neighbor] = candidate
                predecessor[neighbor] = node
                heapq.heappush(frontier, (candidate, neighbor))
            elif candidate == best and node < predecessor[neighbor]:
                predecessor[neighbor] = node
    return distance, predecessor


def all_on_heap_shortest_paths(topology: Topology, origin):
    """``shortest_paths_from`` as it was before degree-1 nodes were
    kept off the heap: every node it reaches is pushed, and a popped
    leaf scans its one (settled) neighbour."""
    topology.kind(origin)  # raises on unknown node
    # Sorted by neighbor id, exactly the order neighbors() returns.
    adjacency = topology.weighted_adjacency()
    distance = {origin: 0.0}
    predecessor = {origin: None}
    # Heap entries: (distance, node). The deterministic tie-break lives
    # in the relaxation step, not the pop order.
    frontier = [(0.0, origin)]
    settled = set()
    heappop, heappush = heapq.heappop, heapq.heappush
    while frontier:
        dist, node = heappop(frontier)
        if node in settled:
            continue
        settled.add(node)
        for neighbor, cost in adjacency[node]:
            if neighbor in settled:
                continue
            candidate = dist + cost
            best = distance.get(neighbor)
            if best is None or candidate < best:
                distance[neighbor] = candidate
                predecessor[neighbor] = node
                heappush(frontier, (candidate, neighbor))
            elif candidate == best and node < predecessor[neighbor]:
                # Equal-cost tie: prefer the smallest predecessor id so
                # the resulting path is deterministic.
                predecessor[neighbor] = node
    return distance, predecessor


def assert_matches_reference(topology: Topology, origin) -> None:
    """Same values and the same dict insertion order as the reference."""
    got = shortest_paths_from(topology, origin)
    want = reference_shortest_paths(topology, origin)
    for got_map, want_map in zip(got, want):
        assert list(got_map.items()) == list(want_map.items())


class TestCachedAdjacency:
    def test_cache_is_reused_until_a_mutation(self):
        topology = diamond()
        adjacency = topology.weighted_adjacency()
        assert topology.weighted_adjacency() is adjacency
        assert adjacency[0] == ((1, 1.0), (2, 2.0))
        topology.set_cost(0, 1, 1.0)  # no-op write
        assert topology.weighted_adjacency() is adjacency

    def test_set_cost_is_seen(self):
        topology = diamond()
        shortest_paths_from(topology, 0)
        topology.set_cost(0, 1, 10.0)
        distance, predecessor = shortest_paths_from(topology, 0)
        assert distance[1] == 9.0  # 0-2-3-1 now beats the direct link
        assert predecessor[1] == 3
        assert_matches_reference(topology, 0)

    def test_add_link_is_seen(self):
        topology = diamond()
        shortest_paths_from(topology, 0)
        topology.add_link(0, 3, 1.0, 1.0)
        distance, predecessor = shortest_paths_from(topology, 0)
        assert (distance[3], predecessor[3]) == (1.0, 0)
        assert_matches_reference(topology, 3)

    def test_add_router_is_seen(self):
        topology = diamond()
        shortest_paths_from(topology, 0)
        topology.add_router(4)
        assert shortest_paths_from(topology, 4) == ({4: 0.0}, {4: None})
        topology.add_link(3, 4, 3.0, 1.0)
        assert shortest_paths_from(topology, 0)[0][4] == 5.0
        assert_matches_reference(topology, 4)

    def test_add_host_is_seen(self):
        topology = diamond()
        shortest_paths_from(topology, 0)
        topology.add_host(9, attached_to=3, cost_up=1.0, cost_down=4.0)
        distance, predecessor = shortest_paths_from(topology, 0)
        assert (distance[9], predecessor[9]) == (6.0, 3)
        assert_matches_reference(topology, 9)

    def test_copy_does_not_share_the_cache(self):
        topology = diamond()
        shortest_paths_from(topology, 0)
        clone = topology.copy()
        assert clone.weighted_adjacency() is not topology.weighted_adjacency()
        clone.set_cost(0, 1, 10.0)
        assert shortest_paths_from(topology, 0)[0][1] == 1.0
        assert shortest_paths_from(clone, 0)[0][1] == 9.0
        topology.set_cost(0, 2, 7.0)
        assert shortest_paths_from(clone, 0)[0][2] == 2.0

    def test_cache_stays_out_of_repr_and_equality(self):
        warm, cold = diamond(), diamond()
        shortest_paths_from(warm, 0)
        assert warm == cold
        assert repr(warm) == repr(cold)


@st.composite
def cost_scripts(draw):
    """A random connected topology and a sequence of directed cost
    writes over it, in a tie-heavy cost range."""
    topology = draw(connected_topologies(min_nodes=2, max_nodes=10))
    directed = sorted(
        edge for a, b in topology.undirected_edges() for edge in ((a, b), (b, a))
    )
    script = draw(st.lists(
        st.tuples(st.sampled_from(directed), st.integers(1, 4)),
        max_size=10,
    ))
    return topology, script


class TestMatchesReference:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cost_scripts())
    def test_every_origin_after_every_set_cost(self, case):
        topology, script = case
        for origin in topology.nodes:
            assert_matches_reference(topology, origin)
        for (a, b), cost in script:
            topology.set_cost(a, b, float(cost))
            for origin in topology.nodes:
                assert_matches_reference(topology, origin)


class TestLeavesOffTheHeap:
    """A degree-1 node is reached only through its one neighbour, so
    Dijkstra finalises it when that neighbour relaxes it and never
    pushes it.  The maps, insertion order included, must equal the
    all-on-heap kernel's."""

    @staticmethod
    def assert_same(topology: Topology, origin) -> None:
        got = shortest_paths_from(topology, origin)
        want = all_on_heap_shortest_paths(topology, origin)
        for got_map, want_map in zip(got, want):
            assert list(got_map.items()) == list(want_map.items())

    def test_random50_with_hosts_from_every_origin(self):
        topology = make_random50_setup(3).topology
        leaves = [n for n in topology.nodes if topology.degree(n) == 1]
        assert len(leaves) >= 50  # one host per router
        for origin in topology.nodes:
            self.assert_same(topology, origin)

    def test_two_nodes_are_both_leaves(self):
        topology = Topology()
        topology.add_router(0)
        topology.add_router(1)
        topology.add_link(0, 1, 2.0, 3.0)
        assert shortest_paths_from(topology, 0) == ({0: 0.0, 1: 2.0},
                                                    {0: None, 1: 0})
        assert shortest_paths_from(topology, 1) == ({1: 0.0, 0: 3.0},
                                                    {1: None, 0: 1})
        for origin in (0, 1):
            self.assert_same(topology, origin)

    def test_leaf_origin(self):
        setup = make_random50_setup(4)
        assert setup.topology.degree(setup.source) == 1
        self.assert_same(setup.topology, setup.source)

    def test_line_keeps_its_relays_on_the_heap(self):
        from repro.topology.random_graphs import line_topology

        line = line_topology(6)  # two leaves, four degree-2 relays
        for origin in line.nodes:
            self.assert_same(line, origin)

    def test_star(self):
        topology = Topology(name="star")
        topology.add_router(0)
        for leaf in (3, 1, 4):
            topology.add_router(leaf)
            topology.add_link(0, leaf, float(leaf), 1.0)
        for host in (9, 2, 6):
            topology.add_host(host, attached_to=0, cost_up=2.0,
                              cost_down=1.0)
        distance, predecessor = shortest_paths_from(topology, 0)
        assert distance == {0: 0.0, 1: 1.0, 2: 1.0, 3: 3.0, 4: 4.0,
                            6: 1.0, 9: 1.0}
        assert set(predecessor.values()) == {None, 0}
        for origin in topology.nodes:
            self.assert_same(topology, origin)
