"""Unit tests for routing tables and the network-wide routing view."""

import gc
import weakref

import pytest

from repro.errors import RoutingError
from repro.experiments.config import make_random50_setup
from repro.protocols.base import build_protocol
from repro.routing.tables import UnicastRouting, shared_routing
from repro.topology.model import Topology
from repro.topology.random_graphs import line_topology


@pytest.fixture
def routing(fig2_topology):
    return UnicastRouting(fig2_topology)


class TestRoutingTable:
    def test_next_hop(self, routing):
        table = routing.table(11)
        assert table.next_hop(0) == 2  # r1's reverse route starts at R2

    def test_next_hop_to_self_raises(self, routing):
        with pytest.raises(RoutingError):
            routing.table(0).next_hop(0)

    def test_unknown_destination_raises(self, routing):
        with pytest.raises(RoutingError):
            routing.table(0).next_hop(99)

    def test_distance(self, routing):
        assert routing.table(0).distance(12) == 2.0

    def test_destinations_complete(self, routing, fig2_topology):
        table = routing.table(0)
        assert table.destinations() == [n for n in fig2_topology.nodes
                                        if n != 0]

    def test_repr(self, routing):
        assert "node=0" in repr(routing.table(0))


class TestUnicastRouting:
    def test_paths_are_asymmetric(self, routing):
        assert routing.path(0, 12) == [0, 4, 12]
        assert routing.path(12, 0) == [12, 3, 1, 0]

    def test_path_to_self(self, routing):
        assert routing.path(7, 7) == [7]

    def test_distance_to_self(self, routing):
        assert routing.distance(3, 3) == 0.0

    def test_path_consistency_with_next_hops(self, routing):
        path = routing.path(11, 0)
        for here, there in zip(path, path[1:]):
            assert routing.next_hop(here, 0) == there

    def test_cost_changes_tracked_automatically(self, fig2_topology):
        routing = UnicastRouting(fig2_topology)
        assert routing.path(0, 12) == [0, 4, 12]
        # Make the R4 route terrible: the routing view observes the
        # cost write itself and repairs the affected table lazily — no
        # invalidate() call, and the table object stays the same.
        table = routing.table(0)
        fig2_topology.set_cost(0, 4, 100.0)
        assert routing.path(0, 12) == [0, 1, 3, 12]
        assert routing.table(0) is table
        assert table.next_hop(12) == 1

    def test_invalidate_still_drops_wholesale(self, fig2_topology):
        routing = UnicastRouting(fig2_topology)
        table = routing.table(0)
        routing.invalidate()
        assert not routing._tables
        assert routing.table(0) is not table
        assert routing.path(0, 12) == [0, 4, 12]

    def test_validates_topology(self):
        from repro.errors import TopologyError

        disconnected = Topology()
        disconnected.add_router(0)
        disconnected.add_router(1)
        with pytest.raises(TopologyError):
            UnicastRouting(disconnected)

    def test_line_distances(self):
        routing = UnicastRouting(line_topology(6))
        assert routing.distance(0, 5) == 5.0
        assert routing.path(0, 5) == [0, 1, 2, 3, 4, 5]


class TestViewReads:
    """``UnicastRouting.next_hop``/``distance`` read a synced table in
    place; they must answer and fail exactly as the table does."""

    @pytest.mark.parametrize("warm", [False, True])
    def test_next_hop_errors_match_the_table(self, routing, warm):
        if warm:
            routing.next_hop(0, 12)  # the table is cached and synced
        for destination in (0, 99):  # self, then an unknown node
            with pytest.raises(RoutingError) as view:
                routing.next_hop(0, destination)
            with pytest.raises(RoutingError) as table:
                routing.table(0).next_hop(destination)
            assert str(view.value) == str(table.value)

    @pytest.mark.parametrize("warm", [False, True])
    def test_distance_errors_match_the_table(self, routing, warm):
        if warm:
            routing.distance(0, 12)
        assert routing.distance(0, 0) == routing.table(0).distance(0) == 0.0
        with pytest.raises(RoutingError) as view:
            routing.distance(0, 99)
        with pytest.raises(RoutingError) as table:
            routing.table(0).distance(99)
        assert str(view.value) == str(table.value) == "0: no route to 99"

    def test_set_cost_shows_on_the_next_call(self, fig2_topology):
        routing = UnicastRouting(fig2_topology)
        assert routing.next_hop(0, 12) == 4  # memoized in the table
        assert routing.distance(0, 12) == 2.0
        fig2_topology.set_cost(0, 4, 100.0)
        assert routing.next_hop(0, 12) == 1
        fig2_topology.set_cost(0, 4, 1.0)
        assert routing.distance(0, 12) == 2.0
        fig2_topology.set_cost(0, 4, 100.0)
        assert routing.distance(0, 12) == 4.0

    @pytest.mark.parametrize("first", ["next_hop", "distance"])
    def test_invalidate_shows_on_the_next_call(self, fig2_topology, first):
        routing = UnicastRouting(fig2_topology)
        before = {"next_hop": 4, "distance": 2.0}
        after = {"next_hop": 12, "distance": 1.0}
        for read in before:
            assert getattr(routing, read)(0, 12) == before[read]
        # A structural change is not a cost delta: the view keeps its
        # tables until invalidate() drops them.
        fig2_topology.add_link(0, 12)
        assert getattr(routing, first)(0, 12) == before[first]
        routing.invalidate()
        assert getattr(routing, first)(0, 12) == after[first]
        for read in after:
            assert getattr(routing, read)(0, 12) == after[read]


class TestNoReferenceCycles:
    """Views and tables form no reference cycles, so a sweep cell's
    routing is freed as soon as the cell drops it, not at the next full
    collection."""

    def test_a_dropped_cell_frees_topology_view_and_tables(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            setup = make_random50_setup("no-cycles")
            routing = shared_routing(setup.topology)
            hbh = build_protocol("hbh", setup.topology, setup.source,
                                 routing=routing)
            for receiver in setup.candidates[:5]:
                hbh.add_receiver(receiver)
                hbh.converge()
            assert hbh.distribute_data().complete
            setup.topology.set_cost(*next(setup.topology.undirected_edges()),
                                    7.0)
            refs = [weakref.ref(setup.topology), weakref.ref(routing),
                    weakref.ref(routing.table(setup.source))]
            del setup, routing, hbh
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            if enabled:
                gc.enable()

    def test_shared_routing_is_one_view_while_held(self, fig2_topology):
        routing = shared_routing(fig2_topology)
        assert shared_routing(fig2_topology) is routing

    def test_a_table_held_alone_follows_set_cost(self, fig2_topology):
        table = UnicastRouting(fig2_topology).table(0)
        gc.collect()
        assert table.next_hop(12) == 4
        fig2_topology.set_cost(0, 4, 100.0)
        assert table.next_hop(12) == 1
        assert table.distance(12) == 4.0
