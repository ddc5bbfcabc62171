"""Unit tests for the static (round-based) drivers.

The membership and convergence contract of :class:`RoundDriver` runs
against both drivers: each contract class below is collected once for
HBH (``TestMembership``, ``TestConvergence``) and once for REUNITE
(``TestReuniteContract``).  Everything after it is HBH-specific.
"""

from collections import Counter

import pytest

from repro.core.static_driver import StaticHbh
from repro.errors import ChannelError
from repro.obs.causal import INITIAL_JOIN, JOIN, TREE, CausalTracer
from repro.protocols.reunite.static_driver import StaticReunite
from repro.routing.tables import UnicastRouting
from repro.topology.model import Topology
from repro.topology.random_graphs import line_topology, star_topology


class MembershipContract:
    driver_cls: type = StaticHbh

    def test_source_cannot_join(self, fig2_topology):
        driver = self.driver_cls(fig2_topology, source=0)
        with pytest.raises(ChannelError):
            driver.add_receiver(0)

    def test_double_join_rejected(self, fig2_topology):
        driver = self.driver_cls(fig2_topology, source=0)
        driver.add_receiver(11)
        with pytest.raises(ChannelError):
            driver.add_receiver(11)

    def test_leave_unknown_rejected(self, fig2_topology):
        driver = self.driver_cls(fig2_topology, source=0)
        with pytest.raises(ChannelError):
            driver.remove_receiver(11)


class ConvergenceContract:
    driver_cls: type = StaticHbh

    def test_converge_returns_round_count(self, fig2_topology):
        driver = self.driver_cls(fig2_topology, source=0)
        driver.add_receiver(11)
        rounds = driver.converge()
        assert 1 <= rounds <= 40

    def test_empty_channel_converges_immediately(self, fig2_topology):
        driver = self.driver_cls(fig2_topology, source=0)
        assert driver.converge() <= 3

    def test_describe_mentions_tables(self, fig2_topology):
        driver = self.driver_cls(fig2_topology, source=0)
        driver.add_receiver(11)
        driver.converge()
        text = driver.describe()
        assert "source 0" in text
        assert "MCT" in text or "MFT" in text


class TestMembership(MembershipContract):
    def test_initial_join_reaches_source(self, fig2_topology):
        driver = StaticHbh(fig2_topology, source=0)
        driver.add_receiver(11)
        assert 11 in driver.source_mft


class TestConvergence(ConvergenceContract):
    pass


class TestReuniteContract(MembershipContract, ConvergenceContract):
    driver_cls = StaticReunite


class TestSingleReceiver:
    def test_line_tree_is_trivial(self):
        driver = StaticHbh(line_topology(4), source=0)
        driver.add_receiver(3)
        driver.converge()
        distribution = driver.distribute_data()
        assert distribution.transmissions == [(0, 1), (1, 2), (2, 3)]
        assert distribution.delays == {3: 3.0}
        assert driver.branching_nodes() == []

    def test_mcts_installed_along_path(self):
        driver = StaticHbh(line_topology(4), source=0)
        driver.add_receiver(3)
        driver.converge()
        assert driver.tree_nodes() == [1, 2]
        for node in (1, 2):
            state = driver.states[node]
            assert state.mct is not None
            assert state.mct.entry.address == 3


class TestStarBranching:
    def test_hub_becomes_branching_node(self):
        driver = StaticHbh(star_topology(5), source=1)  # leaf 1 as source
        driver.add_receiver(2)
        driver.converge()
        driver.add_receiver(3)
        driver.converge()
        assert driver.branching_nodes() == [0]
        distribution = driver.distribute_data()
        # One copy on the source spoke, one per receiver spoke.
        assert distribution.copies == 3
        assert distribution.complete

    def test_all_leaves(self):
        driver = StaticHbh(star_topology(6), source=1)
        for leaf in range(2, 7):
            driver.add_receiver(leaf)
            driver.converge()
        distribution = driver.distribute_data()
        assert distribution.copies == 6  # 1 + 5 spokes
        assert distribution.complete
        assert not distribution.duplicated_links()


class TestDeparture:
    def test_leave_shrinks_tree(self):
        driver = StaticHbh(star_topology(4), source=1)
        for leaf in (2, 3, 4):
            driver.add_receiver(leaf)
            driver.converge()
        driver.remove_receiver(4)
        for _ in range(10):
            driver.run_round()
        distribution = driver.distribute_data()
        assert distribution.delivered == {2, 3}
        assert (0, 4) not in distribution.transmissions

    def test_last_leave_empties_tree(self):
        driver = StaticHbh(line_topology(3), source=0)
        driver.add_receiver(2)
        driver.converge()
        driver.remove_receiver(2)
        for _ in range(10):
            driver.run_round()
        assert len(driver.source_mft) == 0
        assert driver.tree_nodes() == []
        assert driver.distribute_data().copies == 0


class TestUnicastOnlyRouters:
    def test_unicast_router_cannot_branch(self):
        # Hub is unicast-only: it cannot hold an MFT, so the source
        # must send one copy per receiver straight through it.
        topology = star_topology(4)
        topology.set_multicast_capable(0, False)
        driver = StaticHbh(topology, source=1)
        for leaf in (2, 3):
            driver.add_receiver(leaf)
            driver.converge()
        assert driver.branching_nodes() == []
        distribution = driver.distribute_data()
        assert distribution.complete
        # Two copies of the packet cross the source spoke (1->0).
        assert distribution.copies_per_link()[(1, 0)] == 2

    def test_mixed_capability_still_delivers(self):
        topology = line_topology(5)
        topology.set_multicast_capable(2, False)
        driver = StaticHbh(topology, source=0)
        driver.add_receiver(4)
        driver.converge()
        assert driver.distribute_data().complete


class TestPlanRevalidation:
    """Walk plans are memoized against per-origin routing generations:
    a cost delta that crosses none of a plan's tables must not evict
    it, while one that reroutes any consulted table must."""

    def _converged(self, fig2_topology):
        from repro.routing.tables import UnicastRouting

        routing = UnicastRouting(fig2_topology)
        driver = StaticHbh(fig2_topology, source=0, routing=routing)
        driver.add_receiver(11)
        driver.converge()
        driver.distribute_data()
        return driver, routing

    def test_plans_survive_unrelated_cost_change(self, fig2_topology):
        driver, routing = self._converged(fig2_topology)
        plan = driver._join_plans.get(11)
        assert plan is not None
        generation = routing.generation
        # 2->11 is on no shortest path; the global generation still
        # moves (something changed), but every origin revalidates clean.
        fig2_topology.set_cost(2, 11, 7.0)
        assert routing.generation != generation
        driver.run_round()
        assert driver._join_plans.get(11) is plan

    def test_plans_drop_when_their_route_moves(self, fig2_topology):
        driver, routing = self._converged(fig2_topology)
        plan = driver._join_plans.get(11)
        assert plan is not None
        # Make 11's reverse path to the source reroute via R3 (it
        # starts out via R2 — the fixture's asymmetry).
        fig2_topology.set_cost(11, 2, 100.0)
        assert routing.path(11, 0) == [11, 3, 1, 0]
        driver.converge()
        rebuilt = driver._join_plans.get(11)
        assert rebuilt is not None and rebuilt is not plan
        assert driver.distribute_data().complete


class TestTracedSpanHops:
    """A traced span records every hop its message crossed, the
    transparent ones included: the walks step only through the
    rule-applying hops of their plans, so the span must read the rest
    back from the route."""

    SOURCE, UNICAST_ONLY = 10, 1

    def _traced(self):
        # Host 10 - R0 - R1 (unicast-only) - R2, which branches to
        # R3 - host 13 and R4 - host 14.
        topology = Topology(name="spans")
        for router in range(5):
            topology.add_router(router)
        for a, b in ((0, 1), (1, 2), (2, 3), (2, 4)):
            topology.add_link(a, b, 1, 1)
        topology.add_host(self.SOURCE, attached_to=0)
        topology.add_host(13, attached_to=3)
        topology.add_host(14, attached_to=4)
        topology.set_multicast_capable(self.UNICAST_ONLY, False)
        driver = StaticHbh(topology, source=self.SOURCE,
                           routing=UnicastRouting(topology))
        driver.attach_tracer(CausalTracer())
        for receiver in (13, 14):
            driver.add_receiver(receiver)
            driver.converge()
        return driver

    def test_hops_are_the_route_up_to_where_the_walk_ended(self):
        driver = self._traced()
        endings = Counter()
        crossing = Counter()
        for span in driver.causal.spans():
            if span.name in (JOIN, INITIAL_JOIN):
                destination = driver.source
            elif span.name == TREE:
                destination = span.target
            else:
                continue
            route = driver.routing.path(span.node, destination)[1:]
            assert span.hops == route[:len(span.hops)], span
            if span.outcome.startswith("reached"):
                assert span.hops == route, span
            else:
                # "intercepted by B (join rule 3)" or "delivered to
                # branching node B (tree rule 1: ...)": the walk ended
                # at B.
                node = span.outcome.split(" (")[0].split()[-1]
                assert str(span.hops[-1]) == node, span
            endings[span.name, span.outcome.split()[0]] += 1
            if self.UNICAST_ONLY in span.hops:
                crossing[span.name] += 1
        assert endings[JOIN, "intercepted"] > 0
        assert endings[JOIN, "reached"] > 0
        assert endings[TREE, "delivered"] > 0
        assert endings[TREE, "reached"] > 0
        assert crossing[JOIN] > 0 and crossing[TREE] > 0
        assert crossing[INITIAL_JOIN] == 2
