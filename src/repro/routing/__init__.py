"""Unicast routing substrate.

Every multicast protocol in the paper — HBH included — rides on the
unicast routing infrastructure: joins travel along the unicast route
toward the source, tree messages along unicast routes toward receivers,
and data packets follow plain unicast next-hops between branching
nodes.  This package computes those routes.

Routes are shortest paths over the **directed** cost graph, so with
asymmetric per-direction costs the path from A to B generally differs
from the path from B to A — the central phenomenon of the paper
(Section 2.3).
"""

from repro.routing.dijkstra import shortest_path_tree, shortest_paths_from
from repro.routing.tables import RoutingTable, UnicastRouting, shared_routing
from repro.routing.analysis import (
    RouteAsymmetryStats,
    measure_route_asymmetry,
    path_cost,
    reverse_path,
)

__all__ = [
    "shortest_path_tree",
    "shortest_paths_from",
    "RoutingTable",
    "UnicastRouting",
    "shared_routing",
    "RouteAsymmetryStats",
    "measure_route_asymmetry",
    "path_cost",
    "reverse_path",
]
