"""Differential testing of incremental routing repair.

The tentpole invariant: after *any* sequence of link cost changes,
link failures/restores and router crash/restarts, every cached
:class:`~repro.routing.tables.RoutingTable` must be **bit-identical**
— distances, predecessors and derived next hops — to a from-scratch
canonical Dijkstra on the current topology.  Not "equivalent cost":
identical, because the sweep archives are byte-compared across the
incremental and full-recompute modes.

The repair path is stressed lazily on purpose: between events only a
drawn subset of origins is queried (so repairs coalesce multi-event
delta windows), and the final sweep checks every origin, including
ones first built mid-sequence.

Costs are drawn from a tiny integer range so equal-cost ties (the
canonical-predecessor tie-break) occur constantly; link failure uses
the fault plane's astronomic cost, so "partition" and "heal" are the
same 1e12 swings the fault scenarios produce.

The example budget scales via ``ROUTING_FUZZ_EXAMPLES`` (CI raises it
for the dedicated routing-scale job).
"""

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netsim.network import Network
from repro.routing.dijkstra import shortest_paths_from
from repro.routing.tables import UnicastRouting
from tests.property.strategies import connected_topologies

MAX_EXAMPLES = int(os.environ.get("ROUTING_FUZZ_EXAMPLES", "100"))
FUZZ = settings(max_examples=MAX_EXAMPLES, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large])

DOWN_COST = Network.FAILED_LINK_COST


@st.composite
def repair_cases(draw):
    """A topology plus an abstract event script over it.

    Events reference links/nodes by index so the script stays valid for
    whatever topology was drawn; costs are small integers to force
    equal-cost ties.  Each event carries the origins to probe (lazily)
    right after it — often none, so several deltas coalesce into one
    repair window.
    """
    topology = draw(connected_topologies(min_nodes=4, max_nodes=12,
                                         max_extra_links=12))
    # Re-draw costs in a tie-heavy range (the strategy uses [1, 10]).
    for a, b in topology.undirected_edges():
        topology.set_cost(a, b, float(draw(st.integers(1, 3))))
        topology.set_cost(b, a, float(draw(st.integers(1, 3))))
    links = sorted(topology.undirected_edges())
    nodes = sorted(topology.routers)
    probe = st.lists(st.sampled_from(nodes), max_size=3)
    events = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.integers(0, 4))
        if kind <= 1:  # cost change dominates: it is the primitive
            events.append(("cost",
                           draw(st.integers(0, len(links) - 1)),
                           draw(st.booleans()),
                           float(draw(st.integers(1, 3))),
                           draw(probe)))
        elif kind == 2:
            events.append(("down", draw(st.integers(0, len(links) - 1)),
                           draw(probe)))
        elif kind == 3:
            events.append(("up", draw(st.integers(0, len(links) - 1)),
                           draw(probe)))
        else:
            events.append(("crash", draw(st.sampled_from(nodes)),
                           draw(probe)))
    # Warm a drawn subset of tables before any event, so repairs (not
    # just fresh builds) are exercised; the rest get built mid-script.
    warm = draw(st.lists(st.sampled_from(nodes), max_size=4))
    return topology, warm, events


def _oracle_first_hop(pred, origin, destination):
    cursor = destination
    while pred[cursor] != origin:
        cursor = pred[cursor]
    return cursor


def _assert_origin_parity(routing, topology, origin):
    """``origin``'s routes, read through the view and then from its
    cached table, are bit-identical to a fresh Dijkstra."""
    dist, pred = shortest_paths_from(topology, origin)
    # The view first, before routing.table() syncs the table: its
    # per-hop reads must notice pending deltas on their own.
    destinations = sorted(d for d in dist if d != origin)
    for destination in destinations:
        assert routing.distance(origin, destination) == dist[destination], \
            f"view distance {origin}->{destination} diverged"
    for destination in destinations:
        assert routing.next_hop(origin, destination) == _oracle_first_hop(
            pred, origin, destination), \
            f"view next hop {origin}->{destination} diverged"
    table = routing.table(origin)
    assert table._dist == dist, f"distances diverged at origin {origin}"
    assert table._pred == pred, f"predecessors diverged at origin {origin}"


class TestIncrementalRepairDifferential:
    @FUZZ
    @given(repair_cases())
    def test_repair_matches_full_dijkstra(self, case):
        topology, warm, events = case
        routing = UnicastRouting(topology)
        for origin in warm:
            routing.table(origin)

        down = {}      # link -> saved (cost_ab, cost_ba)
        crashed = {}   # node -> {link: saved costs} for its links
        links = sorted(topology.undirected_edges())
        for event in events:
            kind = event[0]
            if kind == "cost":
                _, index, forward, cost, probes = event
                a, b = links[index]
                if not forward:
                    a, b = b, a
                # Touching a failed/crashed link would corrupt the
                # saved costs; skip, as the fault plane does.
                if (links[index] not in down
                        and a not in crashed and b not in crashed):
                    topology.set_cost(a, b, cost)
            elif kind == "down":
                _, index, probes = event
                key = links[index]
                a, b = key
                if key not in down and a not in crashed and b not in crashed:
                    down[key] = (topology.cost(a, b), topology.cost(b, a))
                    topology.set_cost(a, b, DOWN_COST)
                    topology.set_cost(b, a, DOWN_COST)
            elif kind == "up":
                _, index, probes = event
                key = links[index]
                saved = down.pop(key, None)
                if saved is not None:
                    a, b = key
                    topology.set_cost(a, b, saved[0])
                    topology.set_cost(b, a, saved[1])
            else:  # crash (or restart, if already down)
                _, node, probes = event
                if node in crashed:
                    for (a, b), saved in crashed.pop(node).items():
                        topology.set_cost(a, b, saved[0])
                        topology.set_cost(b, a, saved[1])
                else:
                    adjacent = {}
                    for a, b in links:
                        if node in (a, b) and (a, b) not in down:
                            adjacent[(a, b)] = (topology.cost(a, b),
                                                topology.cost(b, a))
                            topology.set_cost(a, b, DOWN_COST)
                            topology.set_cost(b, a, DOWN_COST)
                    crashed[node] = adjacent
            # Lazy partial reads: only the probed origins repair now.
            for origin in probes:
                _assert_origin_parity(routing, topology, origin)

        # Final sweep: every origin (cached or not) must be canonical,
        # including the derived next hops.
        for origin in sorted(topology.routers):
            _assert_origin_parity(routing, topology, origin)
            table = routing.table(origin)
            for destination in table.destinations():
                assert table.next_hop(destination) == _oracle_first_hop(
                    table._pred, origin, destination)

    @FUZZ
    @given(repair_cases())
    def test_repair_matches_escape_hatch(self, case):
        """Incremental and REPRO_ROUTING_FULL views stay identical
        through the same event script (same laziness, same reads)."""
        topology, warm, events = case
        incremental = UnicastRouting(topology)
        os.environ["REPRO_ROUTING_FULL"] = "1"
        try:
            full = UnicastRouting(topology)
        finally:
            del os.environ["REPRO_ROUTING_FULL"]
        assert not incremental.full_recompute and full.full_recompute
        for origin in warm:
            incremental.table(origin)
            full.table(origin)

        down = {}
        crashed = {}
        links = sorted(topology.undirected_edges())
        for event in events:
            kind = event[0]
            if kind == "cost":
                _, index, forward, cost, probes = event
                a, b = links[index]
                if not forward:
                    a, b = b, a
                if (links[index] not in down
                        and a not in crashed and b not in crashed):
                    topology.set_cost(a, b, cost)
            elif kind == "down":
                _, index, probes = event
                key = links[index]
                a, b = key
                if key not in down and a not in crashed and b not in crashed:
                    down[key] = (topology.cost(a, b), topology.cost(b, a))
                    topology.set_cost(a, b, DOWN_COST)
                    topology.set_cost(b, a, DOWN_COST)
            elif kind == "up":
                _, index, probes = event
                saved = down.pop(links[index], None)
                if saved is not None:
                    a, b = links[index]
                    topology.set_cost(a, b, saved[0])
                    topology.set_cost(b, a, saved[1])
            else:
                _, node, probes = event
                if node in crashed:
                    for (a, b), saved in crashed.pop(node).items():
                        topology.set_cost(a, b, saved[0])
                        topology.set_cost(b, a, saved[1])
                else:
                    adjacent = {}
                    for a, b in links:
                        if node in (a, b) and (a, b) not in down:
                            adjacent[(a, b)] = (topology.cost(a, b),
                                                topology.cost(b, a))
                            topology.set_cost(a, b, DOWN_COST)
                            topology.set_cost(b, a, DOWN_COST)
                    crashed[node] = adjacent
            for origin in probes:
                left = incremental.table(origin)
                right = full.table(origin)
                assert left._dist == right._dist
                assert left._pred == right._pred

        for origin in sorted(topology.routers):
            left = incremental.table(origin)
            right = full.table(origin)
            assert left._dist == right._dist
            assert left._pred == right._pred
        assert full.stats.full_rebuilds >= full.stats.refreshes
