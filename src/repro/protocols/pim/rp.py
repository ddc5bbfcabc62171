"""Rendez-vous point selection for PIM-SM shared trees.

The paper does not state how NS's centralized implementation placed the
RP; the shared-tree results depend on it, so this module offers several
strategies and the ``abl-rp`` ablation sweeps them:

- ``median`` (default): the router minimising the sum of directed
  distances to and from every router — a balanced "core" placement;
- ``eccentricity``: the router minimising its worst-case distance;
- ``random``: uniform over routers (seeded);
- ``first``: the lowest-numbered router (a degenerate but reproducible
  choice).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro._rand import SeedLike, make_rng
from repro.errors import ExperimentError
from repro.routing.tables import UnicastRouting, shared_routing
from repro.topology.model import Topology

NodeId = Hashable


def _best_router(topology: Topology, routing: UnicastRouting,
                 score: Callable[[List[Tuple[float, float]]], float]
                 ) -> NodeId:
    """The first router, in id order, with the lowest ``score``.

    A candidate's score is computed from its ``(to, from)`` directed
    distances to every other router, listed in router order.  Each
    router's distance map is fetched once for the whole search.
    """
    routers = topology.routers
    distances = {node: routing.table(node).distances() for node in routers}
    best_node = None
    best_score = float("inf")
    for candidate in routers:
        outbound = distances[candidate]
        value = score([(outbound[other], distances[other][candidate])
                       for other in routers if other != candidate])
        if value < best_score:
            best_score = value
            best_node = candidate
    return best_node


def _total_distance(pairs: List[Tuple[float, float]]) -> float:
    total = 0.0
    for to, back in pairs:
        total += to
        total += back
    return total


def _worst_distance(pairs: List[Tuple[float, float]]) -> float:
    return max(max(to, back) for to, back in pairs)


def _median_rp(topology: Topology, routing: UnicastRouting,
               seed: SeedLike) -> NodeId:
    return _best_router(topology, routing, _total_distance)


def _eccentricity_rp(topology: Topology, routing: UnicastRouting,
                     seed: SeedLike) -> NodeId:
    return _best_router(topology, routing, _worst_distance)


def _random_rp(topology: Topology, routing: UnicastRouting,
               seed: SeedLike) -> NodeId:
    return make_rng(seed).choice(topology.routers)


def _first_rp(topology: Topology, routing: UnicastRouting,
              seed: SeedLike) -> NodeId:
    return topology.routers[0]


RP_STRATEGIES: Dict[str, Callable] = {
    "median": _median_rp,
    "eccentricity": _eccentricity_rp,
    "random": _random_rp,
    "first": _first_rp,
}


def select_rp(
    topology: Topology,
    routing: Optional[UnicastRouting] = None,
    strategy: str = "median",
    seed: SeedLike = None,
) -> NodeId:
    """Pick the rendez-vous point router for a PIM-SM shared tree."""
    if not topology.routers:
        raise ExperimentError("topology has no routers to pick an RP from")
    try:
        chooser = RP_STRATEGIES[strategy]
    except KeyError:
        known = ", ".join(sorted(RP_STRATEGIES))
        raise ExperimentError(
            f"unknown RP strategy {strategy!r} (known: {known})"
        ) from None
    routing = routing or shared_routing(topology)
    return chooser(topology, routing, seed)
