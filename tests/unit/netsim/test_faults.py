"""Unit tests for the fault-injection plane.

Covers the schedule vocabulary (validation, flap expansion), both
replayers (event-driven injector, round-based player), the crash /
restart network primitives, the packet-level link perturbations, and
the connectivity helpers the fuzz strategies are built on.
"""

import random

import pytest

from repro.core import HbhChannel
from repro.core.router import HbhRouterAgent
from repro.core.tables import ProtocolTiming
from repro.errors import SimulationError
from repro.netsim.faults import (
    FaultInjector,
    FaultSchedule,
    FaultScheduleError,
    LinkDown,
    LinkDuplicate,
    LinkFlap,
    LinkJitter,
    LinkLoss,
    LinkReorder,
    LinkUp,
    RoundFaultPlayer,
    RouterCrash,
    RouterRestart,
    candidate_fault_links,
    close_schedule,
    keeps_group_connected,
    merge_timelines,
    random_schedule,
)
from repro.netsim.network import Network
from repro.netsim.packet import Packet
from repro.routing.tables import UnicastRouting
from repro.topology.model import Topology

FAST = ProtocolTiming(join_period=50.0, tree_period=50.0, t1=130.0,
                      t2=260.0)


def ladder() -> Topology:
    topology = Topology(name="ladder")
    for router in (0, 1, 2, 3, 4):
        topology.add_router(router)
    topology.add_link(0, 1, 1, 1)
    topology.add_link(1, 2, 1, 1)
    topology.add_link(0, 3, 5, 5)
    topology.add_link(3, 4, 5, 5)
    topology.add_link(4, 2, 5, 5)
    topology.add_host(10, attached_to=0)
    topology.add_host(12, attached_to=2)
    return topology


class TestFaultSchedule:
    def test_negative_time_rejected(self):
        with pytest.raises(FaultScheduleError):
            FaultSchedule([LinkDown(-1.0, 0, 1)])

    def test_bad_flap_rejected(self):
        with pytest.raises(FaultScheduleError):
            FaultSchedule([LinkFlap(0.0, 0, 1, flaps=0)])
        with pytest.raises(FaultScheduleError):
            FaultSchedule([LinkFlap(0.0, 0, 1, period=0.0)])

    def test_expand_unrolls_flaps_in_time_order(self):
        schedule = FaultSchedule([LinkFlap(1.0, 0, 1, flaps=2, period=4.0)])
        expanded = schedule.expand()
        assert [type(e).__name__ for e in expanded] == [
            "LinkDown", "LinkUp", "LinkDown", "LinkUp"]
        assert [e.time for e in expanded] == [1.0, 3.0, 5.0, 7.0]
        assert schedule.horizon == 7.0

    def test_expand_sorts_mixed_events(self):
        schedule = FaultSchedule([
            RouterCrash(5.0, 3),
            LinkDown(1.0, 0, 1),
            RouterRestart(9.0, 3),
        ])
        assert [e.time for e in schedule.expand()] == [1.0, 5.0, 9.0]

    def test_validate_against_topology(self):
        schedule = FaultSchedule([LinkDown(0.0, 0, 2)])  # no such link
        with pytest.raises(FaultScheduleError):
            schedule.validate_against(ladder())
        FaultSchedule([LinkDown(0.0, 0, 1)]).validate_against(ladder())

    def test_describe_lists_every_event(self):
        schedule = FaultSchedule(
            [LinkFlap(1.0, 0, 1), LinkLoss(2.0, 1, 2, rate=0.5),
             RouterCrash(3.0, 4)],
            seed=7, name="demo",
        )
        text = schedule.describe()
        assert "demo" in text and "seed=7" in text
        assert "link_flap" in text and "rate=0.5" in text
        assert "node=4" in text
        assert len(schedule) == 3


class TestFaultInjector:
    def test_replays_and_counts(self):
        network = Network(ladder())
        schedule = FaultSchedule(
            [LinkDown(10.0, 1, 2), LinkUp(30.0, 1, 2)], name="cut")
        injector = FaultInjector(network, schedule)
        assert injector.arm() == 2
        network.run(until=20.0)
        assert network.routing.path(0, 2) == [0, 3, 4, 2]
        network.run(until=40.0)
        assert network.routing.path(0, 2) == [0, 1, 2]
        assert len(injector.applied) == 2
        assert injector.skipped == []
        assert network.metrics.value("fault.injected.link_down") == 1.0
        assert network.metrics.value("fault.injected.link_up") == 1.0

    def test_inapplicable_event_skipped_not_fatal(self):
        network = Network(ladder())
        schedule = FaultSchedule([
            LinkDown(1.0, 1, 2),
            LinkDown(2.0, 1, 2),  # already down: skipped, not fatal
        ])
        injector = FaultInjector(network, schedule)
        injector.play_all()
        assert len(injector.applied) == 1
        assert len(injector.skipped) == 1
        assert network.metrics.value("fault.skipped.link_down") == 1.0

    def test_unknown_link_rejected_at_construction(self):
        network = Network(ladder())
        with pytest.raises(FaultScheduleError):
            FaultInjector(network, FaultSchedule([LinkDown(0.0, 0, 4)]))

    def test_packet_level_events_configure_the_link(self):
        network = Network(ladder())
        schedule = FaultSchedule([
            LinkLoss(1.0, 0, 1, rate=0.25),
            LinkJitter(1.0, 1, 2, jitter=3.0),
            LinkDuplicate(1.0, 0, 3, rate=0.5),
            LinkReorder(1.0, 3, 4, rate=0.5),
            LinkLoss(2.0, 0, 1, rate=0.0),  # switch loss back off
        ], seed=11)
        FaultInjector(network, schedule).play_all()
        assert network.link_between(0, 1).loss_rate == 0.0
        assert network.link_between(0, 1).loss_rng is None
        assert network.link_between(1, 2).jitter == 3.0
        assert network.link_between(1, 2).jitter_rng is not None
        assert network.link_between(0, 3).duplicate_rate == 0.5
        assert network.link_between(3, 4).reorder_rate == 0.5

    def test_crash_wipes_router_tables(self):
        network = Network(ladder())
        channel = HbhChannel(network, source_node=10, timing=FAST)
        channel.join(12)
        channel.converge(periods=6)
        agent = next(a for a in network.node(1).agents
                     if isinstance(a, HbhRouterAgent))
        assert agent.states  # on the primary path, so it holds state
        schedule = FaultSchedule([RouterCrash(0.0, 1)])
        FaultInjector(network, schedule,
                      time_offset=network.simulator.now).play_all()
        assert agent.states == {}
        assert network.is_crashed(1)


class TestNetworkCrashRestart:
    def test_crash_downs_adjacent_links_and_restart_restores(self):
        network = Network(ladder())
        assert network.routing.path(0, 2) == [0, 1, 2]
        network.crash_router(1)
        assert network.is_crashed(1)
        assert not network.node(0).links[1].up
        assert not network.node(2).links[1].up
        assert network.routing.path(0, 2) == [0, 3, 4, 2]
        network.restart_router(1)
        assert not network.is_crashed(1)
        assert network.node(0).links[1].up
        assert network.routing.path(0, 2) == [0, 1, 2]

    def test_double_crash_rejected(self):
        network = Network(ladder())
        network.crash_router(1)
        with pytest.raises(SimulationError):
            network.crash_router(1)

    def test_restart_of_running_router_rejected(self):
        network = Network(ladder())
        with pytest.raises(SimulationError):
            network.restart_router(1)

    def test_crash_spares_links_already_down(self):
        # A link downed before the crash must stay down after restart.
        network = Network(ladder())
        network.fail_link(1, 2)
        network.crash_router(1)
        network.restart_router(1)
        assert network.node(0).links[1].up
        assert not network.node(2).links[1].up


class TestLinkPerturbations:
    def _network_and_packet(self):
        topology = Topology(name="pair")
        topology.add_router(0)
        topology.add_router(1)
        topology.add_link(0, 1, 2.0, 2.0)
        network = Network(topology)
        packet = Packet(src=network.address_of(0),
                        dst=network.address_of(1), payload="x")
        return network, packet

    def test_set_loss_zero_without_rng_is_valid(self):
        # Regression: disabling loss must not demand an rng.
        network, _ = self._network_and_packet()
        link = network.node(0).links[1]
        link.set_loss(0.3, random.Random(1))
        link.set_loss(0.0, None)
        assert link.loss_rate == 0.0
        assert link.loss_rng is None

    def test_positive_loss_requires_rng(self):
        network, _ = self._network_and_packet()
        link = network.node(0).links[1]
        with pytest.raises(SimulationError):
            link.set_loss(0.3, None)
        with pytest.raises(SimulationError):
            link.set_loss(1.5, random.Random(1))

    def test_other_perturbations_validate_the_same_way(self):
        network, _ = self._network_and_packet()
        link = network.node(0).links[1]
        for setter in (link.set_jitter, link.set_duplication,
                       link.set_reordering):
            with pytest.raises(SimulationError):
                setter(0.5, None)
            setter(0.0, None)  # disabling never needs an rng

    def test_jitter_delays_arrival(self):
        network, packet = self._network_and_packet()
        link = network.node(0).links[1]
        link.set_jitter(5.0, random.Random(42))
        network.node(0).emit(packet)
        network.run()
        assert network.simulator.now > 2.0  # base delay plus jitter
        assert len(network.node(1).unclaimed) == 1

    def test_duplication_delivers_twice_and_counts(self):
        network, packet = self._network_and_packet()
        link = network.node(0).links[1]
        link.set_duplication(0.999, random.Random(1))
        network.node(0).emit(packet)
        network.run()
        assert link.packets_duplicated == 1
        assert len(network.node(1).unclaimed) == 2

    def test_reordering_lets_later_packet_overtake(self):
        network, packet = self._network_and_packet()
        link = network.node(0).links[1]
        link.set_reordering(0.999, random.Random(1))
        network.node(0).emit(packet)
        link.set_reordering(0.0, None)
        second = Packet(src=network.address_of(0),
                        dst=network.address_of(1), payload="y")
        network.node(0).emit(second)
        network.run()
        assert link.packets_reordered == 1
        arrived = [p.payload for p in network.node(1).unclaimed]
        assert arrived == ["y", "x"]


class TestRoundFaultPlayer:
    def test_cut_and_restore_costs(self):
        topology = ladder()
        routing = UnicastRouting(topology)
        schedule = FaultSchedule([LinkDown(2.0, 1, 2), LinkUp(5.0, 1, 2)])
        player = RoundFaultPlayer(topology, schedule)
        assert player.advance(1.0) == 0
        assert player.advance(2.0) == 1
        assert player.down_links == frozenset({(1, 2)})
        assert routing.path(0, 2) == [0, 3, 4, 2]
        assert player.advance(5.0) == 1
        assert player.exhausted
        assert topology.cost(1, 2) == 1
        assert routing.path(0, 2) == [0, 1, 2]

    def test_crash_cuts_adjacent_and_calls_hook(self):
        topology = ladder()
        wiped = []
        schedule = FaultSchedule(
            [RouterCrash(1.0, 1), RouterRestart(3.0, 1)])
        player = RoundFaultPlayer(topology, schedule,
                                  on_crash=wiped.append)
        player.advance(1.0)
        assert wiped == [1]
        assert (0, 1) in player.down_links
        assert (1, 2) in player.down_links
        player.finish()
        assert player.down_links == frozenset()
        assert topology.cost(0, 1) == 1

    def test_duplicate_events_idempotent(self):
        topology = ladder()
        schedule = FaultSchedule([
            LinkDown(1.0, 1, 2), LinkDown(2.0, 1, 2),
            LinkUp(3.0, 1, 2), LinkUp(4.0, 1, 2),
            RouterRestart(5.0, 3),  # never crashed
        ])
        player = RoundFaultPlayer(topology, schedule)
        player.finish()
        assert topology.cost(1, 2) == 1  # restored exactly once

    def test_packet_level_events_ignored(self):
        topology = ladder()
        schedule = FaultSchedule([LinkLoss(1.0, 0, 1, rate=0.5)])
        player = RoundFaultPlayer(topology, schedule)
        player.finish()
        assert len(player.ignored) == 1
        assert player.down_links == frozenset()


class TestConnectivityHelpers:
    def test_keeps_group_connected(self):
        topology = ladder()
        assert keeps_group_connected(topology, 10, [12])
        assert keeps_group_connected(topology, 10, [12],
                                     down_links=[(1, 2)])
        assert not keeps_group_connected(
            topology, 10, [12], down_links=[(1, 2), (3, 4)])
        assert not keeps_group_connected(topology, 10, [12], crashed=[2])

    def test_candidate_links_spare_endpoint_access(self):
        topology = ladder()
        links = candidate_fault_links(topology, 10, [12])
        assert (0, 10) not in links and (2, 12) not in links
        assert (1, 2) in links

    def test_close_schedule_heals_disconnection(self):
        topology = ladder()
        events = [LinkDown(1.0, 1, 2), LinkDown(2.0, 3, 4),
                  RouterCrash(3.0, 4)]
        closed = close_schedule(events, topology, 10, [12], heal_time=9.0)
        restarts = [e for e in closed if isinstance(e, RouterRestart)]
        ups = [e for e in closed if isinstance(e, LinkUp)]
        assert [e.node for e in restarts] == [4]
        assert ups  # at least one cut restored
        # Replaying the closed schedule ends connected.
        player = RoundFaultPlayer(topology, FaultSchedule(closed))
        player.finish()
        assert keeps_group_connected(topology, 10, [12],
                                     down_links=player.down_links)

    def test_close_schedule_keeps_harmless_cuts(self):
        topology = ladder()
        closed = close_schedule([LinkDown(1.0, 3, 4)], topology, 10, [12],
                                heal_time=9.0)
        assert closed == [LinkDown(1.0, 3, 4)]  # nothing to heal

    def test_random_schedule_deterministic_and_connected(self):
        topology = ladder()
        one = random_schedule(topology, 10, [12], seed=5)
        two = random_schedule(topology, 10, [12], seed=5)
        assert one.events == two.events
        assert one.name == "random-5"
        fresh = ladder()
        player = RoundFaultPlayer(fresh, one)
        player.finish()
        assert keeps_group_connected(fresh, 10, [12],
                                     down_links=player.down_links)


class TestMergeTimelines:
    """merge_timelines / FaultSchedule.merge — churn-plane composition."""

    def test_time_ordered_across_streams(self):
        faults = [LinkDown(5.0, 0, 1), LinkUp(9.0, 0, 1)]
        other = [LinkDown(1.0, 3, 4), LinkDown(7.0, 4, 2)]
        merged = list(merge_timelines(faults, other))
        assert [e.time for e in merged] == [1.0, 5.0, 7.0, 9.0]

    def test_earlier_lane_wins_ties(self):
        first = [LinkDown(5.0, 0, 1)]
        second = [LinkUp(5.0, 3, 4)]
        merged = list(merge_timelines(first, second))
        assert merged == [LinkDown(5.0, 0, 1), LinkUp(5.0, 3, 4)]
        flipped = list(merge_timelines(second, first))
        assert flipped == [LinkUp(5.0, 3, 4), LinkDown(5.0, 0, 1)]

    def test_schedule_merge_puts_faults_first(self):
        schedule = FaultSchedule([LinkDown(5.0, 0, 1)])
        churn = [LinkUp(5.0, 3, 4)]  # stands in for a same-time churn event
        merged = list(schedule.merge(churn))
        assert merged[0] == LinkDown(5.0, 0, 1)

    def test_merge_expands_flaps(self):
        schedule = FaultSchedule([LinkFlap(2.0, 0, 1, flaps=2, period=2.0)])
        merged = list(schedule.merge([LinkDown(3.0, 3, 4)]))
        kinds = [(e.time, e.kind) for e in merged]
        # Flap halves its period; the schedule's own t=3 up sorts
        # before the merged-in t=3 down (faults lane first).
        assert kinds == [(2.0, "link_down"), (3.0, "link_up"),
                         (3.0, "link_down"), (4.0, "link_down"),
                         (5.0, "link_up")]

    def test_merge_is_lazy(self):
        def endless():
            t = 0.0
            while True:
                t += 1.0
                yield LinkDown(t, 0, 1)

        merged = merge_timelines([LinkUp(0.5, 3, 4)], endless())
        head = [next(merged) for _ in range(4)]
        assert [e.time for e in head] == [0.5, 1.0, 2.0, 3.0]
