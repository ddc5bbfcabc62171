"""Random topology generators.

The paper's second evaluation topology is "a random-generated topology
with 50 nodes and higher connectivity (8.6 versus 3.3)" (Section 4.1).
:func:`random_topology_50` reproduces that model exactly: 50 router
nodes, 215 links (average degree 2*215/50 = 8.6), connected, receivers
co-located with routers.

:func:`waxman_topology` provides the classic Waxman model for the
connectivity ablation (``abl-conn``): the paper concludes that "the
advantage of HBH grows with larger and more connected networks", which
the ablation sweeps directly.
"""

from __future__ import annotations

import itertools
import math
import random

from repro._rand import SeedLike, derive_rng, make_rng
from repro.errors import TopologyError
from repro.topology.costs import assign_uniform_costs
from repro.topology.model import Topology

#: Parameters of the paper's random topology.
RANDOM50_NODES = 50
RANDOM50_AVG_DEGREE = 8.6
RANDOM50_LINKS = round(RANDOM50_NODES * RANDOM50_AVG_DEGREE / 2)  # 215

_MAX_ATTEMPTS = 200


def random_topology(
    num_nodes: int,
    num_links: int,
    seed: SeedLike = None,
    name: str = "random",
    randomize_costs: bool = True,
) -> Topology:
    """A connected G(n, m) random router topology.

    Regenerates (with fresh randomness) until connected, so the returned
    topology is always usable; raises :class:`TopologyError` if ``m`` is
    too small for connectivity or after an implausible number of
    failures.
    """
    if num_links < num_nodes - 1:
        raise TopologyError(
            f"{num_links} links cannot connect {num_nodes} nodes"
        )
    max_links = num_nodes * (num_nodes - 1) // 2
    if num_links > max_links:
        raise TopologyError(
            f"{num_links} links exceed the {max_links} possible on "
            f"{num_nodes} nodes"
        )
    rng = make_rng(seed)
    return _first_connected(
        lambda: _gnm_edges(num_nodes, num_links, rng.getrandbits(32)),
        num_nodes, rng, name, randomize_costs, f"G({num_nodes}, {num_links})",
    )


def _gnm_edges(num_nodes: int, num_links: int, seed: int) -> list[tuple[int, int]]:
    """networkx 3.x's ``gnm_random_graph(num_nodes, num_links, seed)`` as
    sorted ``(low, high)`` edges, drawn the same way on the same
    ``random.Random(seed)`` stream.  The complete graph takes no draw."""
    if num_links == num_nodes * (num_nodes - 1) // 2:
        return list(itertools.combinations(range(num_nodes), 2))
    rng = random.Random(seed)
    nodes = list(range(num_nodes))
    edges = set()
    while len(edges) < num_links:
        u, v = rng.choice(nodes), rng.choice(nodes)
        if u != v:
            edges.add((u, v) if u < v else (v, u))
    return sorted(edges)


def _first_connected(draw, num_nodes: int, rng: random.Random, name: str,
                     randomize_costs: bool, model: str) -> Topology:
    """The topology of the first ``draw()`` edge list that connects all
    of nodes ``0..num_nodes-1``, with uniform costs from ``rng``."""
    for _ in range(_MAX_ATTEMPTS):
        topology = Topology.from_links(draw(), name=name)
        # A node in no link is missing here, and leaves it disconnected.
        if topology.num_nodes == num_nodes and topology.is_connected():
            if randomize_costs:
                assign_uniform_costs(topology, seed=derive_rng(rng, "costs"))
            topology.validate()
            return topology
    raise TopologyError(
        f"could not generate a connected {model} in {_MAX_ATTEMPTS} attempts"
    )


def random_topology_50(seed: SeedLike = None, randomize_costs: bool = True) -> Topology:
    """The paper's 50-node random topology (average connectivity 8.6)."""
    return random_topology(
        RANDOM50_NODES,
        RANDOM50_LINKS,
        seed=seed,
        name="random50",
        randomize_costs=randomize_costs,
    )


def waxman_topology(
    num_nodes: int,
    alpha: float = 0.4,
    beta: float = 0.4,
    seed: SeedLike = None,
    name: str = "waxman",
    randomize_costs: bool = True,
) -> Topology:
    """A connected Waxman random topology.

    Nodes are placed uniformly in the unit square and each pair is
    linked with probability ``alpha * exp(-d / (beta * L))`` where ``d``
    is their Euclidean distance and ``L`` the maximum distance.  Used by
    the connectivity ablation; ``alpha`` scales the average degree.
    """
    if num_nodes < 2:
        raise TopologyError("Waxman topology needs at least 2 nodes")
    if not (0 < alpha <= 1 and 0 < beta <= 1):
        raise TopologyError(f"Waxman parameters out of range: {alpha}, {beta}")
    rng = make_rng(seed)
    scale = beta * math.sqrt(2.0)

    def draw() -> list:
        positions = [(rng.random(), rng.random()) for _ in range(num_nodes)]
        edges = []
        for a in range(num_nodes):
            for b in range(a + 1, num_nodes):
                ax, ay = positions[a]
                bx, by = positions[b]
                distance = math.hypot(ax - bx, ay - by)
                if rng.random() < alpha * math.exp(-distance / scale):
                    edges.append((a, b))
        return edges

    return _first_connected(
        draw, num_nodes, rng, name, randomize_costs,
        f"Waxman({num_nodes}, {alpha}, {beta})",
    )


#: Reference size at which :func:`scaled_waxman_topology`'s locality
#: parameter equals its nominal ``beta`` — larger graphs shrink the
#: neighborhood radius so density (and candidate work per node) stays
#: constant as the node count grows.
SCALED_WAXMAN_REF_NODES = 1000


def scaled_waxman_topology(
    num_nodes: int,
    target_degree: float = 6.0,
    beta: float = 0.1,
    seed: SeedLike = None,
    name: str = "waxman-scaled",
    randomize_costs: bool = True,
) -> Topology:
    """A Waxman-style random topology that scales to tens of thousands
    of routers.

    The classic :func:`waxman_topology` considers all ``n*(n-1)/2``
    pairs — hopeless past a few hundred nodes.  This variant keeps the
    Waxman edge law ``alpha * exp(-d / s)`` but makes it *scale-free in
    work*:

    * the locality scale ``s = beta * L * sqrt(REF/n)`` shrinks with
      the node count, so the expected neighborhood of a node (and hence
      its degree, for fixed ``alpha``) is independent of ``n``;
    * candidate pairs come from a spatial hash grid with cutoff radius
      ``2.5 * s`` (~71% of the exponential edge mass; the tail is folded
      into ``alpha``'s normalisation), so edge drawing is ``O(n)``
      pairs instead of ``O(n^2)``;
    * ``alpha`` is solved from ``target_degree`` in closed form, and
      any components the truncated draw leaves behind are stitched to
      the giant component through their geometrically nearest pair —
      the graph is connected by construction, no retry loop.

    Deterministic for a given ``(num_nodes, target_degree, beta, seed)``.
    """
    if num_nodes < 2:
        raise TopologyError("Waxman topology needs at least 2 nodes")
    if not (0 < beta <= 1):
        raise TopologyError(f"Waxman beta out of range: {beta}")
    if target_degree <= 0:
        raise TopologyError(f"non-positive target degree {target_degree}")
    rng = make_rng(seed)
    positions = [(rng.random(), rng.random()) for _ in range(num_nodes)]
    length = math.sqrt(2.0)
    scale = beta * length * math.sqrt(SCALED_WAXMAN_REF_NODES / num_nodes)
    cutoff = min(2.5 * scale, length)
    ratio = cutoff / scale
    # Expected degree = n * alpha * 2*pi*s^2 * (1 - e^{-r/s}(1 + r/s))
    # (the integral of the edge law over the cutoff disk against unit
    # point density); solve for alpha and clamp to a probability.
    mass = 2.0 * math.pi * scale * scale * (
        1.0 - math.exp(-ratio) * (1.0 + ratio)
    )
    alpha = min(1.0, target_degree / (num_nodes * mass))

    # Spatial hash: cells of the cutoff size, so candidate neighbors of
    # a node all live in its 3x3 cell block.
    cell = cutoff
    grid: dict = {}
    for node, (x, y) in enumerate(positions):
        grid.setdefault((int(x / cell), int(y / cell)), []).append(node)
    edges = []
    adjacency: list = [[] for _ in range(num_nodes)]
    for a in range(num_nodes):
        ax, ay = positions[a]
        ca, cb = int(ax / cell), int(ay / cell)
        for gx in (ca - 1, ca, ca + 1):
            for gy in (cb - 1, cb, cb + 1):
                for b in grid.get((gx, gy), ()):
                    if b <= a:
                        continue
                    bx, by = positions[b]
                    distance = math.hypot(ax - bx, ay - by)
                    if distance > cutoff:
                        continue
                    if rng.random() < alpha * math.exp(-distance / scale):
                        edges.append((a, b))
                        adjacency[a].append(b)
                        adjacency[b].append(a)

    # Stitch stray components onto the giant one via their nearest pair
    # (geometric nearness keeps the patch links Waxman-plausible).
    component = [-1] * num_nodes
    components: list = []
    for start in range(num_nodes):
        if component[start] >= 0:
            continue
        label = len(components)
        members = [start]
        component[start] = label
        stack = [start]
        while stack:
            node = stack.pop()
            for neighbor in adjacency[node]:
                if component[neighbor] < 0:
                    component[neighbor] = label
                    members.append(neighbor)
                    stack.append(neighbor)
        components.append(members)
    components.sort(key=len, reverse=True)
    main = components[0]
    for members in components[1:]:
        best = None
        for a in members:
            ax, ay = positions[a]
            for b in main:
                bx, by = positions[b]
                distance = math.hypot(ax - bx, ay - by)
                if best is None or distance < best[0]:
                    best = (distance, a, b)
        _, a, b = best
        edges.append((min(a, b), max(a, b)))
        main.extend(members)

    topology = _from_scaled_edges(edges, num_nodes, name)
    if randomize_costs:
        assign_uniform_costs(topology, seed=derive_rng(rng, "costs"))
    topology.validate()
    return topology


def _from_scaled_edges(edges, num_nodes: int, name: str) -> Topology:
    """Build the all-router topology with nodes 0..n-1 in id order
    (``Topology.from_links`` orders nodes by first appearance, which
    would make node ids depend on the edge draw)."""
    topology = Topology(name=name)
    for node in range(num_nodes):
        topology.add_router(node)
    for a, b in edges:
        topology.add_link(a, b)
    return topology


def line_topology(num_nodes: int, name: str = "line") -> Topology:
    """A chain of routers 0-1-...-n-1 with unit costs (testing helper)."""
    if num_nodes < 2:
        raise TopologyError("line topology needs at least 2 nodes")
    return Topology.from_links(
        [(i, i + 1) for i in range(num_nodes - 1)], name=name
    )


def star_topology(num_leaves: int, name: str = "star") -> Topology:
    """A hub (node 0) with ``num_leaves`` spokes, unit costs (testing helper)."""
    if num_leaves < 1:
        raise TopologyError("star topology needs at least 1 leaf")
    return Topology.from_links(
        [(0, leaf) for leaf in range(1, num_leaves + 1)], name=name
    )
