"""Unit tests for the topology generators, costs and host attachment."""

import hashlib
import itertools
import random

import pytest

from repro.errors import TopologyError
from repro.routing.tables import UnicastRouting
from repro.topology.costs import (
    assign_spread_costs,
    assign_symmetric_costs,
    assign_uniform_costs,
)
from repro.topology.hosts import attach_one_host_per_router
from repro.topology.isp import (
    ISP_LINKS,
    ISP_NUM_ROUTERS,
    ISP_SOURCE_NODE,
    isp_receiver_candidates,
    isp_topology,
)
from repro.topology.random_graphs import (
    _first_connected,
    _gnm_edges,
    line_topology,
    random_topology,
    random_topology_50,
    star_topology,
    waxman_topology,
)


class TestIspTopology:
    def test_published_statistics(self):
        topology = isp_topology(seed=1)
        assert len(topology.routers) == ISP_NUM_ROUTERS == 18
        assert len(ISP_LINKS) == 30
        # "average connectivity 3.3" (Section 4.1).
        assert topology.average_degree() == pytest.approx(2 * 30 / 18)

    def test_hosts_numbered_like_the_paper(self):
        topology = isp_topology(seed=1)
        assert topology.hosts == list(range(18, 36))
        # Host 18+i hangs off router i.
        for router in range(18):
            assert topology.attachment_router(18 + router) == router

    def test_source_is_node_18(self):
        topology = isp_topology(seed=1)
        assert ISP_SOURCE_NODE == 18
        assert ISP_SOURCE_NODE not in isp_receiver_candidates(topology)
        assert len(isp_receiver_candidates(topology)) == 17

    def test_costs_in_paper_range(self):
        topology = isp_topology(seed=3)
        for a, b in topology.undirected_edges():
            assert 1 <= topology.cost(a, b) <= 10
            assert 1 <= topology.cost(b, a) <= 10

    def test_seed_reproducibility(self):
        t1, t2 = isp_topology(seed=5), isp_topology(seed=5)
        for a, b in t1.undirected_edges():
            assert t1.cost(a, b) == t2.cost(a, b)

    def test_without_hosts(self):
        topology = isp_topology(seed=1, with_hosts=False)
        assert topology.hosts == []
        topology.validate()

    def test_unit_costs_option(self):
        topology = isp_topology(randomize_costs=False)
        assert all(topology.cost(a, b) == 1
                   for a, b in topology.undirected_edges())


class TestRandom50:
    def test_paper_parameters(self):
        topology = random_topology_50(seed=2)
        assert len(topology.routers) == 50
        assert topology.num_links == 215
        assert topology.average_degree() == pytest.approx(8.6)
        topology.validate()

    def test_distinct_seeds_distinct_graphs(self):
        t1, t2 = random_topology_50(seed=1), random_topology_50(seed=2)
        assert (sorted(t1.undirected_edges())
                != sorted(t2.undirected_edges()))


class TestRandomTopology:
    def test_connectivity_guaranteed(self):
        for seed in range(5):
            random_topology(20, 25, seed=seed).validate()

    def test_too_few_links_rejected(self):
        with pytest.raises(TopologyError):
            random_topology(10, 8, seed=0)

    def test_too_many_links_rejected(self):
        with pytest.raises(TopologyError):
            random_topology(5, 11, seed=0)


def links_digest(topology) -> str:
    """sha256 of every link with both directed costs, by ``repr`` so
    that an int cost and its float spelling differ."""
    text = "".join(
        f"{link.a} {link.b} {link.cost_ab!r} {link.cost_ba!r}\n"
        for link in topology.links()
    )
    return hashlib.sha256(text.encode()).hexdigest()


class TestGnmDraw:
    """The seeded G(n, m) draw is networkx 3.x's ``gnm_random_graph`` on
    the same ``random.Random(seed)`` stream, and a draw is kept exactly
    when ``nx.is_connected`` keeps it."""

    @pytest.mark.parametrize(("num_nodes", "num_links"), [(50, 215), (200, 600), (12, 11)])
    def test_edges_match_networkx(self, num_nodes, num_links):
        nx = pytest.importorskip("networkx")
        for seed in range(200):
            graph = nx.gnm_random_graph(num_nodes, num_links, seed=seed)
            assert _gnm_edges(num_nodes, num_links, seed) == sorted(graph.edges())

    @pytest.mark.parametrize(("num_nodes", "num_links", "min_rejected"), [
        (50, 215, 0), (200, 600, 50), (12, 11, 1500),
    ])
    def test_connectivity_verdicts_match_networkx(
        self, num_nodes, num_links, min_rejected
    ):
        # One verdict that differs from networkx's moves the seed stream
        # of every later draw, so equal results mean equal verdicts.
        nx = pytest.importorskip("networkx")
        rejected = 0
        for seed in range(200):
            rng = random.Random(seed)
            graph = nx.gnm_random_graph(num_nodes, num_links, seed=rng.getrandbits(32))
            while not nx.is_connected(graph):
                rejected += 1
                graph = nx.gnm_random_graph(num_nodes, num_links, seed=rng.getrandbits(32))
            topology = random_topology(num_nodes, num_links, seed=seed,
                                       randomize_costs=False)
            assert sorted(topology.undirected_edges()) == sorted(graph.edges())
        # The sparse size checks mostly "disconnected" verdicts.
        assert rejected >= min_rejected

    def test_isolated_node_is_disconnected(self):
        draws = iter([[(0, 1), (1, 2)], [(0, 1), (1, 2), (2, 3)]])
        topology = _first_connected(lambda: next(draws), 4, random.Random(0),
                                    name="draws", randomize_costs=False, model="test")
        assert topology.num_links == 3

    def test_complete_graph_when_every_link_is_asked_for(self):
        topology = random_topology(6, 15, seed=0)
        assert sorted(topology.undirected_edges()) == list(
            itertools.combinations(range(6), 2)
        )


class TestPinnedDraws:
    """Digests recorded while networkx drew these graphs: the paper's
    random topology must not move, costs included."""

    @pytest.mark.parametrize(("seed", "digest"), [
        (1, "fb0ed113a60244eb0e94ee7105812802cf0b18fe4f75ad488fe4e8e8dbfe7505"),
        (2, "dd9117deea43597f43c7d70a7178184efbee2fa668c3ffc78eb714c5a8838f29"),
        (3, "de791b02da9be690d9ccf8320139c1d5c0038eed4a6c5b609da4066b015fe3ce"),
    ])
    def test_random50(self, seed, digest):
        assert links_digest(random_topology_50(seed=seed)) == digest

    def test_waxman(self):
        topology = waxman_topology(40, alpha=0.4, beta=0.4, seed=11)
        assert links_digest(topology) == (
            "14c94f6b81078cafbc8ef3a2e42ee2943467abc09e87898eb0de380152a6aae0"
        )


class TestWaxman:
    def test_connected_and_sized(self):
        topology = waxman_topology(30, seed=4)
        assert len(topology.routers) == 30
        topology.validate()

    def test_alpha_scales_density(self):
        sparse = waxman_topology(40, alpha=0.2, seed=9)
        dense = waxman_topology(40, alpha=0.9, seed=9)
        assert dense.num_links > sparse.num_links

    def test_parameter_validation(self):
        with pytest.raises(TopologyError):
            waxman_topology(10, alpha=0.0)
        with pytest.raises(TopologyError):
            waxman_topology(10, beta=1.5)
        with pytest.raises(TopologyError):
            waxman_topology(1)


class TestHelpers:
    def test_line_topology(self):
        topology = line_topology(5)
        assert topology.num_links == 4
        assert topology.degree(0) == 1
        assert topology.degree(2) == 2

    def test_star_topology(self):
        topology = star_topology(6)
        assert topology.degree(0) == 6
        assert all(topology.degree(leaf) == 1 for leaf in range(1, 7))

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(TopologyError):
            line_topology(1)
        with pytest.raises(TopologyError):
            star_topology(0)


class TestCostModels:
    def test_uniform_costs_are_asymmetric_somewhere(self):
        topology = line_topology(30)
        assign_uniform_costs(topology, seed=1)
        assert any(topology.cost(a, b) != topology.cost(b, a)
                   for a, b in topology.undirected_edges())

    def test_symmetric_costs(self):
        topology = line_topology(30)
        assign_symmetric_costs(topology, seed=1)
        assert all(topology.cost(a, b) == topology.cost(b, a)
                   for a, b in topology.undirected_edges())

    def test_spread_zero_is_symmetric(self):
        topology = line_topology(30)
        assign_spread_costs(topology, spread=0.0, seed=1)
        assert all(topology.cost(a, b) == topology.cost(b, a)
                   for a, b in topology.undirected_edges())

    def test_spread_one_is_asymmetric(self):
        topology = line_topology(30)
        assign_spread_costs(topology, spread=1.0, seed=1)
        assert any(topology.cost(a, b) != topology.cost(b, a)
                   for a, b in topology.undirected_edges())

    def test_spread_validation(self):
        with pytest.raises(TopologyError):
            assign_spread_costs(line_topology(3), spread=1.5)

    def test_bad_range_rejected(self):
        with pytest.raises(TopologyError):
            assign_uniform_costs(line_topology(3), low=0)
        with pytest.raises(TopologyError):
            assign_symmetric_costs(line_topology(3), low=5, high=4)

    def test_costs_stay_positive_under_spread(self):
        topology = line_topology(50)
        assign_spread_costs(topology, spread=0.5, seed=2)
        for a, b in topology.undirected_edges():
            assert topology.cost(a, b) >= 1


class TestHostAttachment:
    def test_one_host_per_router(self):
        topology = random_topology_50(seed=3)
        hosts = attach_one_host_per_router(topology, seed=4)
        assert len(hosts) == 50
        assert hosts == list(range(50, 100))
        for offset, router in enumerate(topology.routers):
            assert topology.attachment_router(50 + offset) == router
        topology.validate()

    def test_routing_reaches_hosts(self):
        topology = random_topology_50(seed=3)
        hosts = attach_one_host_per_router(topology, seed=4)
        routing = UnicastRouting(topology)
        assert routing.path(hosts[0], hosts[-1])[0] == hosts[0]
        assert routing.path(hosts[0], hosts[-1])[-1] == hosts[-1]
