"""Cache-coherence tests for the incremental routing substrate.

Satellite of the incremental-repair PR: memoized holders of a
:class:`RoutingTable` must observe per-origin invalidation (a stale
read refreshes, never silently serves old routes), sparse storage must
answer ``destinations()``/``distance()`` consistently for unreachable
nodes, and the escape hatch / overflow / batch-heuristic paths must
all fall back to from-scratch Dijkstra without changing answers.
"""

import os

import pytest

from repro.errors import RoutingError
from repro.routing.tables import (
    FULL_RECOMPUTE_ENV,
    RoutingTable,
    UnicastRouting,
)
from repro.topology.random_graphs import line_topology


class TestHeldTableCoherence:
    def test_stale_read_refreshes_in_place(self, fig2_topology):
        routing = UnicastRouting(fig2_topology)
        table = routing.table(0)
        assert table.distance(12) == 2.0  # 0 -> 4 -> 12
        fig2_topology.set_cost(4, 12, 50.0)
        # No invalidate() anywhere: the held reference repairs itself
        # on the next read and reroutes via 0 -> 1 -> 3 -> 12.
        assert table.distance(12) == 4.0
        assert table.next_hop(12) == 1

    def test_only_affected_origins_bump_generation(self, fig2_topology):
        routing = UnicastRouting(fig2_topology)
        for node in fig2_topology.nodes:
            routing.table(node)
        untouched = routing.origin_generation(13)
        fig2_topology.set_cost(4, 12, 50.0)
        routing.refresh_all()
        # 13's tree never crosses 4->12; its generation must not move,
        # while origin 0 (which routed 0->4->12) must.
        assert routing.origin_generation(13) == untouched
        assert routing.origin_generation(0) == routing.generation

    def test_no_effect_change_leaves_every_origin_clean(self, fig2_topology):
        routing = UnicastRouting(fig2_topology)
        for node in fig2_topology.nodes:
            routing.table(node)
        routing.stats.reset()
        # 2->11 costs 5 but every tree reaches 11 via 3 (or 2->1->3):
        # raising it changes no shortest path anywhere.
        fig2_topology.set_cost(2, 11, 7.0)
        assert routing.refresh_all() == 0
        stats = routing.stats
        assert stats.refreshes == len(fig2_topology.nodes)
        assert stats.origins_clean == stats.refreshes
        assert stats.origins_changed == 0

    def test_refresh_all_counts_changed_origins(self, fig2_topology):
        routing = UnicastRouting(fig2_topology)
        for node in fig2_topology.nodes:
            routing.table(node)
        routing.stats.reset()
        fig2_topology.set_cost(0, 4, 100.0)
        changed = routing.refresh_all()
        stats = routing.stats
        assert changed >= 1
        assert stats.origins_changed == changed
        assert stats.origins_clean == stats.refreshes - changed
        assert stats.nodes_touched >= changed

    def test_origin_generation_unbuilt_is_none(self, fig2_topology):
        routing = UnicastRouting(fig2_topology)
        assert routing.origin_generation(0) is None
        routing.table(0)
        assert isinstance(routing.origin_generation(0), int)

    def test_coalesced_window_nets_out(self, fig2_topology):
        """A down/up round trip observed in one lazy window is a no-op:
        the table never sees the intermediate state."""
        routing = UnicastRouting(fig2_topology)
        table = routing.table(0)
        generation = table.generation
        original = fig2_topology.cost(0, 4)
        fig2_topology.set_cost(0, 4, 1e12)
        fig2_topology.set_cost(0, 4, original)
        assert table.distance(12) == 2.0
        assert table.generation == generation


class TestSparseStorage:
    def test_unreachable_destination_is_consistent(self):
        # A standalone sparse table (as a learned-routing view would
        # hold): nodes absent from the maps are uniformly unreachable.
        table = RoutingTable(0, {0: 0.0, 1: 1.0}, {0: None, 1: 0})
        assert table.destinations() == [1]
        assert table.distance(1) == 1.0
        assert table.next_hop(1) == 1
        with pytest.raises(RoutingError):
            table.distance(2)
        with pytest.raises(RoutingError):
            table.next_hop(2)
        with pytest.raises(RoutingError):
            table.predecessor(2)

    def test_destinations_match_distance_domain(self, fig2_topology):
        routing = UnicastRouting(fig2_topology)
        table = routing.table(0)
        for destination in table.destinations():
            assert table.distance(destination) > 0.0


class TestFullRecomputeFallbacks:
    def test_escape_hatch_env(self, fig2_topology, monkeypatch):
        monkeypatch.setenv(FULL_RECOMPUTE_ENV, "1")
        routing = UnicastRouting(fig2_topology)
        assert routing.full_recompute
        table = routing.table(0)
        fig2_topology.set_cost(4, 12, 50.0)
        assert table.distance(12) == 4.0
        assert routing.stats.full_rebuilds >= 1

    def test_escape_hatch_off_by_default(self, fig2_topology):
        assert os.environ.get(FULL_RECOMPUTE_ENV, "") in ("", "0")
        assert not UnicastRouting(fig2_topology).full_recompute

    def test_log_overflow_forces_rebuild(self):
        topology = line_topology(6)
        routing = UnicastRouting(topology)
        table = routing.table(0)
        # Flood the delta log far past its cap (256 on this tiny
        # graph); the held table's window is dropped, so its next read
        # must take the from-scratch path — and still be right.
        for i in range(300):
            topology.set_cost(0, 1, 2.0 + (i % 2))
        assert routing._deltas.base > table.applied_seq + 1
        assert table.distance(5) == 7.0  # 3 + 1 + 1 + 1 + 1
        assert routing.stats.full_rebuilds >= 1

    def test_mass_change_takes_batch_rebuild(self, fig2_topology):
        routing = UnicastRouting(fig2_topology)
        table = routing.table(0)
        routing.stats.reset()
        # Touch most directed edges in one window: the 2/3 heuristic
        # prefers one Dijkstra over edge-by-edge repair.
        for a, b in list(fig2_topology.undirected_edges()):
            fig2_topology.set_cost(a, b, fig2_topology.cost(a, b) + 20.0)
        assert table.distance(12) == routing.distance(0, 12)
        assert routing.stats.full_rebuilds >= 1
