"""Unit tests for the Topology model."""

import pytest

from repro.errors import TopologyError
from repro.topology.model import LinkSpec, NodeKind, Topology


def small_topology() -> Topology:
    topology = Topology(name="small")
    topology.add_router(0)
    topology.add_router(1)
    topology.add_router(2)
    topology.add_link(0, 1, 2.0, 3.0)
    topology.add_link(1, 2, 1.0, 1.0)
    return topology


class TestLinkSpec:
    def test_rejects_self_loop(self):
        with pytest.raises(TopologyError):
            LinkSpec(1, 1)

    def test_rejects_non_positive_costs(self):
        with pytest.raises(TopologyError):
            LinkSpec(0, 1, cost_ab=0)
        with pytest.raises(TopologyError):
            LinkSpec(0, 1, cost_ba=-1)


class TestConstruction:
    def test_duplicate_node_rejected(self):
        topology = Topology()
        topology.add_router(0)
        with pytest.raises(TopologyError):
            topology.add_router(0)

    def test_duplicate_link_rejected(self):
        topology = small_topology()
        with pytest.raises(TopologyError):
            topology.add_link(1, 0)

    def test_link_to_unknown_node_rejected(self):
        topology = Topology()
        topology.add_router(0)
        with pytest.raises(TopologyError):
            topology.add_link(0, 99)

    def test_host_requires_router_attachment(self):
        topology = Topology()
        topology.add_router(0)
        topology.add_host(10, attached_to=0)
        with pytest.raises(TopologyError):
            topology.add_host(11, attached_to=10)  # host-to-host

    def test_host_attachment_to_missing_router(self):
        topology = Topology()
        with pytest.raises(TopologyError):
            topology.add_host(10, attached_to=0)

    def test_host_single_homed(self):
        topology = small_topology()
        topology.add_host(10, attached_to=0)
        with pytest.raises(TopologyError):
            topology.add_link(10, 1)

    def test_from_links(self):
        topology = Topology.from_links([(0, 1), (1, 2)], name="chain")
        assert topology.routers == [0, 1, 2]
        assert topology.num_links == 2


class TestQueries:
    def test_directed_costs(self):
        topology = small_topology()
        assert topology.cost(0, 1) == 2.0
        assert topology.cost(1, 0) == 3.0

    def test_cost_of_missing_link_raises(self):
        topology = small_topology()
        with pytest.raises(TopologyError):
            topology.cost(0, 2)

    def test_set_cost(self):
        topology = small_topology()
        topology.set_cost(0, 1, 9.0)
        assert topology.cost(0, 1) == 9.0
        assert topology.cost(1, 0) == 3.0  # other direction untouched

    def test_set_cost_validates(self):
        topology = small_topology()
        with pytest.raises(TopologyError):
            topology.set_cost(0, 2, 5.0)
        with pytest.raises(TopologyError):
            topology.set_cost(0, 1, 0.0)

    def test_kinds_and_listing(self):
        topology = small_topology()
        topology.add_host(10, attached_to=2)
        assert topology.kind(0) is NodeKind.ROUTER
        assert topology.kind(10) is NodeKind.HOST
        assert topology.hosts == [10]
        assert topology.routers == [0, 1, 2]
        assert topology.nodes == [0, 1, 2, 10]

    def test_kind_of_unknown_node(self):
        with pytest.raises(TopologyError):
            small_topology().kind(99)

    def test_attachment_router(self):
        topology = small_topology()
        topology.add_host(10, attached_to=2)
        assert topology.attachment_router(10) == 2
        with pytest.raises(TopologyError):
            topology.attachment_router(0)  # not a host

    def test_neighbors_sorted(self):
        topology = small_topology()
        assert topology.neighbors(1) == [0, 2]

    def test_degree(self):
        topology = small_topology()
        assert topology.degree(1) == 2
        assert topology.degree(0) == 1

    def test_undirected_edges_unique(self):
        topology = small_topology()
        assert sorted(topology.undirected_edges()) == [(0, 1), (1, 2)]

    def test_links_report_both_costs(self):
        (first, _) = sorted(small_topology().links(), key=lambda l: l.a)
        assert (first.cost_ab, first.cost_ba) == (2.0, 3.0)

    def test_average_degree_routers_only(self):
        topology = small_topology()
        topology.add_host(10, attached_to=0)
        # Router-router degrees: 1, 2, 1 -> 4/3.
        assert topology.average_degree() == pytest.approx(4 / 3)
        # Including host links: degrees 2, 2, 1, 1 over 4 nodes.
        assert topology.average_degree(routers_only=False) == pytest.approx(1.5)


class TestMulticastCapability:
    def test_default_capable(self):
        assert small_topology().is_multicast_capable(0)

    def test_flagging_unicast_only(self):
        topology = small_topology()
        topology.set_multicast_capable(1, False)
        assert not topology.is_multicast_capable(1)

    def test_constructed_unicast_only(self):
        topology = Topology()
        topology.add_router(0, multicast_capable=False)
        assert not topology.is_multicast_capable(0)


class TestValidation:
    def test_connected_ok(self):
        small_topology().validate()

    def test_empty_rejected(self):
        with pytest.raises(TopologyError):
            Topology().validate()

    def test_disconnected_rejected(self):
        topology = Topology()
        topology.add_router(0)
        topology.add_router(1)
        with pytest.raises(TopologyError):
            topology.validate()

    def test_is_connected(self):
        topology = small_topology()
        assert topology.is_connected()
        topology.add_router(99)
        assert not topology.is_connected()


class TestViewsAndCopy:
    def test_directed_graph_edges(self):
        # Two physical links, each carrying both of its directed costs.
        assert small_topology().links() == [
            LinkSpec(0, 1, 2.0, 3.0),
            LinkSpec(1, 2, 1.0, 1.0),
        ]

    def test_copy_is_deep(self):
        topology = small_topology()
        clone = topology.copy(name="clone")
        clone.set_cost(0, 1, 7.0)
        assert topology.cost(0, 1) == 2.0
        assert clone.name == "clone"

    def test_repr_mentions_counts(self):
        assert "links=2" in repr(small_topology())
