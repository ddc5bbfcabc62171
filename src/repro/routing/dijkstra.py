"""Dijkstra shortest paths over the directed, asymmetric cost graph.

Implemented from first principles (binary heap, deterministic
tie-breaking) rather than delegating to networkx: routing is substrate
for every experiment, and deterministic tie-breaks are what make the
Monte-Carlo runs exactly reproducible across Python versions.

Ties between equal-cost paths are broken by preferring the
lexicographically smallest predecessor node id, so the shortest-path
tree (and hence every protocol's behaviour) is a pure function of the
topology and costs.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, List, Optional, Tuple

from repro.errors import RoutingError
from repro.obs.profiling import profiled
from repro.topology.model import Topology

NodeId = Hashable


@profiled("dijkstra.shortest_paths_from")
def shortest_paths_from(
    topology: Topology, origin: NodeId
) -> Tuple[Dict[NodeId, float], Dict[NodeId, Optional[NodeId]]]:
    """Single-source shortest paths from ``origin`` over directed costs.

    Returns ``(distance, predecessor)`` maps.  ``predecessor[origin]``
    is ``None``; nodes unreachable from ``origin`` are absent from both
    maps (cannot happen on a validated, connected topology).
    """
    topology.kind(origin)  # raises on unknown node
    # Sorted by neighbor id, exactly the order neighbors() returns.
    adjacency = topology.weighted_adjacency()
    distance: Dict[NodeId, float] = {origin: 0.0}
    predecessor: Dict[NodeId, Optional[NodeId]] = {origin: None}
    # Heap entries: (distance, node). The deterministic tie-break lives
    # in the relaxation step, not the pop order.
    frontier: List[Tuple[float, NodeId]] = [(0.0, origin)]
    settled = set()
    heappop, heappush = heapq.heappop, heapq.heappush
    while frontier:
        dist, node = heappop(frontier)
        if node in settled:
            continue
        settled.add(node)
        for neighbor, cost in adjacency[node]:
            if neighbor in settled:
                continue
            candidate = dist + cost
            best = distance.get(neighbor)
            if best is None:
                distance[neighbor] = candidate
                predecessor[neighbor] = node
                # A degree-1 node (every host) is reached only through
                # this one neighbour, so its distance is already final,
                # and once popped it would relax nothing: keep it off
                # the heap.
                if len(adjacency[neighbor]) > 1:
                    heappush(frontier, (candidate, neighbor))
            elif candidate < best:
                distance[neighbor] = candidate
                predecessor[neighbor] = node
                heappush(frontier, (candidate, neighbor))
            elif candidate == best and node < predecessor[neighbor]:
                # Equal-cost tie: prefer the smallest predecessor id so
                # the resulting path is deterministic.
                predecessor[neighbor] = node
    return distance, predecessor


def shortest_path_tree(
    topology: Topology, origin: NodeId
) -> Dict[NodeId, List[NodeId]]:
    """Full shortest paths from ``origin`` to every node.

    Returns ``{destination: [origin, ..., destination]}``.  The path to
    ``origin`` itself is ``[origin]``.
    """
    distance, predecessor = shortest_paths_from(topology, origin)
    paths: Dict[NodeId, List[NodeId]] = {}
    for destination in distance:
        path = [destination]
        node = destination
        while predecessor[node] is not None:
            node = predecessor[node]
            path.append(node)
        path.reverse()
        paths[destination] = path
    return paths


def shortest_path(
    topology: Topology, origin: NodeId, destination: NodeId
) -> List[NodeId]:
    """The shortest path from ``origin`` to ``destination``.

    Convenience wrapper over :func:`shortest_paths_from`; raises
    :class:`RoutingError` if unreachable.
    """
    distance, predecessor = shortest_paths_from(topology, origin)
    if destination not in distance:
        raise RoutingError(f"no route from {origin} to {destination}")
    path = [destination]
    node = destination
    while predecessor[node] is not None:
        node = predecessor[node]
        path.append(node)
    path.reverse()
    return path
