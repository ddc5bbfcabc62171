"""Property-based tests for the substrates: routing, engine, addresses,
topology serialization."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.addressing import Address, GroupAddress
from repro.netsim.engine import Simulator
from repro.routing.analysis import path_cost
from repro.routing.dijkstra import shortest_paths_from
from repro.routing.tables import UnicastRouting
from repro.topology.io import topology_from_dict, topology_to_dict
from tests.oracles import networkx_distances
from tests.property.strategies import connected_topologies

COMMON = settings(max_examples=80, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


class TestRoutingProperties:
    @COMMON
    @given(connected_topologies())
    def test_matches_networkx(self, topology):
        distance, _ = shortest_paths_from(topology, 0)
        assert distance == networkx_distances(topology, 0)

    @COMMON
    @given(connected_topologies())
    def test_path_cost_equals_distance(self, topology):
        routing = UnicastRouting(topology)
        for destination in topology.nodes[1:]:
            path = routing.path(0, destination)
            assert path_cost(topology, path) == \
                routing.distance(0, destination)

    @COMMON
    @given(connected_topologies())
    def test_triangle_inequality(self, topology):
        routing = UnicastRouting(topology)
        nodes = topology.nodes[:5]
        for a in nodes:
            for b in nodes:
                for c in nodes:
                    assert (routing.distance(a, c)
                            <= routing.distance(a, b)
                            + routing.distance(b, c) + 1e-9)

    @COMMON
    @given(connected_topologies())
    def test_next_hop_progress(self, topology):
        # Following next hops strictly decreases remaining distance —
        # the loop-freedom argument for all hop-by-hop forwarding.
        routing = UnicastRouting(topology)
        destination = topology.nodes[-1]
        for origin in topology.nodes:
            node = origin
            while node != destination:
                successor = routing.next_hop(node, destination)
                assert (routing.distance(successor, destination)
                        < routing.distance(node, destination))
                node = successor


class TestEngineProperties:
    @COMMON
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), max_size=50))
    def test_execution_times_nondecreasing(self, delays):
        simulator = Simulator()
        fired = []
        for delay in delays:
            simulator.schedule(delay, lambda: fired.append(simulator.now))
        simulator.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @COMMON
    @given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=1e3,
                                        allow_nan=False),
                              st.booleans()), max_size=40))
    def test_cancelled_events_never_fire(self, schedule):
        simulator = Simulator()
        fired = []
        expected = 0
        for delay, cancel in schedule:
            handle = simulator.schedule(delay, fired.append, delay)
            if cancel:
                handle.cancel()
            else:
                expected += 1
        simulator.run()
        assert len(fired) == expected


class TestAddressingProperties:
    @COMMON
    @given(st.integers(0, 2**32 - 1))
    def test_format_parse_round_trip(self, value):
        if (224 << 24) <= value < (240 << 24):
            address = GroupAddress(value)
            assert GroupAddress.parse(str(address)).value == value
        else:
            address = Address(value)
            assert Address.parse(str(address)).value == value


class TestTopologyProperties:
    @COMMON
    @given(connected_topologies())
    def test_generated_topologies_validate(self, topology):
        topology.validate()
        assert topology.is_connected()

    @COMMON
    @given(connected_topologies())
    def test_serialization_round_trip(self, topology):
        rebuilt = topology_from_dict(topology_to_dict(topology))
        assert rebuilt.nodes == topology.nodes
        assert (sorted(rebuilt.undirected_edges())
                == sorted(topology.undirected_edges()))
        for a, b in topology.undirected_edges():
            assert rebuilt.cost(a, b) == topology.cost(a, b)

    @COMMON
    @given(connected_topologies())
    def test_degree_sum_is_twice_links(self, topology):
        degree_sum = sum(topology.degree(node) for node in topology.nodes)
        assert degree_sum == 2 * topology.num_links
