"""Topology model: nodes, per-direction link costs, host attachment.

A :class:`Topology` is a connected multigraph-free network of *routers*
and *hosts*.  Every physical link is bidirectional but carries **two
independent costs**, one per direction — ``cost(a, b)`` need not equal
``cost(b, a)``.  The cost doubles as the link's propagation delay in
"time units", which is exactly the model of the paper: integer costs
uniform in [1, 10], delay measured in the same units (Section 4.1).

Hosts are degree-1 nodes attached to a router; they model the paper's
"potential receivers" (nodes 18-35 of the ISP topology).  For the
50-node random topology, receivers sit directly on routers, so a
topology with zero hosts is equally valid: protocol agents can attach to
any node.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import TopologyError

NodeId = int


class NodeKind(enum.Enum):
    """What a node is: a backbone router or an edge host."""

    ROUTER = "router"
    HOST = "host"


@dataclass(frozen=True, slots=True)
class LinkSpec:
    """One physical link with its two directed costs."""

    a: NodeId
    b: NodeId
    cost_ab: float = 1.0
    cost_ba: float = 1.0

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise TopologyError(f"self-loop link at node {self.a}")
        if self.cost_ab <= 0 or self.cost_ba <= 0:
            raise TopologyError(
                f"link {self.a}-{self.b} has non-positive cost "
                f"({self.cost_ab}, {self.cost_ba})"
            )


@dataclass
class Topology:
    """A network of routers and hosts with asymmetric directed costs.

    Use :meth:`add_router` / :meth:`add_host` / :meth:`add_link` to
    build, then :meth:`validate` (or any consumer) to check
    connectivity.
    """

    name: str = "topology"
    _kinds: Dict[NodeId, NodeKind] = field(default_factory=dict)
    _costs: Dict[Tuple[NodeId, NodeId], float] = field(default_factory=dict)
    _adjacency: Dict[NodeId, Set[NodeId]] = field(default_factory=dict)
    _multicast_capable: Dict[NodeId, bool] = field(default_factory=dict)
    #: Observers of directed-cost mutations, called as
    #: ``listener(a, b, old_cost, new_cost)`` after each effective
    #: :meth:`set_cost`.  The routing substrate registers here so fault
    #: events become incremental routing deltas instead of wholesale
    #: invalidations.  Listeners are identity-bound: :meth:`copy` does
    #: NOT carry them over (a copy gets fresh consumers).
    _cost_listeners: List[Callable[[NodeId, NodeId, float, float], None]] = field(
        default_factory=list, repr=False, compare=False
    )
    #: :meth:`weighted_adjacency`'s cache, dropped by every mutation of
    #: the node set, the link set or a cost.  Derived state: never
    #: copied, compared or printed.
    _weighted: Optional[Dict[NodeId, Tuple[Tuple[NodeId, float], ...]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_router(self, node: NodeId, multicast_capable: bool = True) -> NodeId:
        """Add a backbone router.  Returns the node id for chaining."""
        self._add_node(node, NodeKind.ROUTER)
        self._multicast_capable[node] = multicast_capable
        return node

    def add_host(self, node: NodeId, attached_to: NodeId,
                 cost_up: float = 1.0, cost_down: float = 1.0) -> NodeId:
        """Add an edge host attached to router ``attached_to``.

        ``cost_up`` is the host->router direction, ``cost_down`` the
        router->host direction.
        """
        if attached_to not in self._kinds:
            raise TopologyError(f"attachment router {attached_to} does not exist")
        if self._kinds[attached_to] is not NodeKind.ROUTER:
            raise TopologyError(f"cannot attach host to non-router {attached_to}")
        self._add_node(node, NodeKind.HOST)
        # Hosts never branch multicast traffic themselves; they are
        # sources/receivers.  Mark them capable so receiver agents work.
        self._multicast_capable[node] = True
        self.add_link(node, attached_to, cost_up, cost_down)
        return node

    def add_link(self, a: NodeId, b: NodeId,
                 cost_ab: float = 1.0, cost_ba: float = 1.0) -> None:
        """Add a bidirectional link with per-direction costs."""
        spec = LinkSpec(a, b, cost_ab, cost_ba)  # validates
        for node in (a, b):
            if node not in self._kinds:
                raise TopologyError(f"link endpoint {node} does not exist")
        if (a, b) in self._costs:
            raise TopologyError(f"duplicate link {a}-{b}")
        if self._kinds[a] is NodeKind.HOST and len(self._adjacency[a]) >= 1:
            raise TopologyError(f"host {a} already has an attachment link")
        if self._kinds[b] is NodeKind.HOST and len(self._adjacency[b]) >= 1:
            raise TopologyError(f"host {b} already has an attachment link")
        self._costs[(a, b)] = spec.cost_ab
        self._costs[(b, a)] = spec.cost_ba
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)
        self._weighted = None

    def _add_node(self, node: NodeId, kind: NodeKind) -> None:
        if node in self._kinds:
            raise TopologyError(f"duplicate node {node}")
        self._kinds[node] = kind
        self._adjacency[node] = set()
        self._weighted = None

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[NodeId]:
        """All node ids, sorted."""
        return sorted(self._kinds)

    @property
    def routers(self) -> List[NodeId]:
        """All router node ids, sorted."""
        return sorted(n for n, k in self._kinds.items() if k is NodeKind.ROUTER)

    @property
    def hosts(self) -> List[NodeId]:
        """All host node ids, sorted."""
        return sorted(n for n, k in self._kinds.items() if k is NodeKind.HOST)

    def kind(self, node: NodeId) -> NodeKind:
        """The kind of ``node`` (router or host)."""
        try:
            return self._kinds[node]
        except KeyError:
            raise TopologyError(f"unknown node {node}") from None

    def is_multicast_capable(self, node: NodeId) -> bool:
        """Whether ``node`` runs the multicast protocol (vs unicast-only)."""
        self.kind(node)
        return self._multicast_capable[node]

    def set_multicast_capable(self, node: NodeId, capable: bool) -> None:
        """Flip a router between multicast-capable and unicast-only."""
        self.kind(node)
        self._multicast_capable[node] = capable

    def attachment_router(self, host: NodeId) -> NodeId:
        """The router a host hangs off."""
        if self.kind(host) is not NodeKind.HOST:
            raise TopologyError(f"{host} is not a host")
        (router,) = self._adjacency[host]
        return router

    def neighbors(self, node: NodeId) -> List[NodeId]:
        """Sorted neighbor ids of ``node``."""
        self.kind(node)
        return sorted(self._adjacency[node])

    def weighted_adjacency(self) -> Dict[NodeId, Tuple[Tuple[NodeId, float], ...]]:
        """Every node's outgoing ``(neighbor, cost)`` pairs, sorted by
        neighbor id: :meth:`neighbors` and :meth:`cost` for all nodes
        at once, for loops that visit every edge (Dijkstra).

        Built on first use and cached until the next :meth:`set_cost`,
        :meth:`add_link` or node addition.  The mapping is shared:
        read it, never mutate it.
        """
        weighted = self._weighted
        if weighted is None:
            costs = self._costs
            weighted = self._weighted = {
                node: tuple((neighbor, costs[(node, neighbor)])
                            for neighbor in sorted(adjacent))
                for node, adjacent in self._adjacency.items()
            }
        return weighted

    def degree(self, node: NodeId) -> int:
        """Number of links incident to ``node``."""
        self.kind(node)
        return len(self._adjacency[node])

    def cost(self, a: NodeId, b: NodeId) -> float:
        """Directed cost (= delay) of traversing the link from a to b."""
        try:
            return self._costs[(a, b)]
        except KeyError:
            raise TopologyError(f"no link from {a} to {b}") from None

    def set_cost(self, a: NodeId, b: NodeId, cost: float) -> None:
        """Set the directed cost of an existing link direction.

        No-op writes (the direction already carries ``cost``) are
        elided, so listeners only ever see *effective* changes.
        """
        if (a, b) not in self._costs:
            raise TopologyError(f"no link from {a} to {b}")
        if cost <= 0:
            raise TopologyError(f"non-positive cost {cost} for {a}->{b}")
        old = self._costs[(a, b)]
        if cost == old:
            return
        self._costs[(a, b)] = cost
        self._weighted = None
        for listener in self._cost_listeners:
            listener(a, b, old, cost)

    def add_cost_listener(
        self, listener: Callable[[NodeId, NodeId, float, float], None]
    ) -> None:
        """Observe every effective :meth:`set_cost` as
        ``listener(a, b, old, new)``, called after the write.

        Structural mutations (:meth:`add_link`) are NOT reported —
        consumers that cache over the link *set* must rebuild; the
        library only mutates costs on a live topology.
        """
        self._cost_listeners.append(listener)

    def remove_cost_listener(
        self, listener: Callable[[NodeId, NodeId, float, float], None]
    ) -> None:
        """Detach a listener added with :meth:`add_cost_listener`."""
        self._cost_listeners.remove(listener)

    def has_link(self, a: NodeId, b: NodeId) -> bool:
        """Whether a physical link joins ``a`` and ``b``."""
        return (a, b) in self._costs

    def undirected_edges(self) -> Iterator[Tuple[NodeId, NodeId]]:
        """Each physical link once, as an (a, b) pair with a < b."""
        for (a, b) in self._costs:
            if a < b:
                yield (a, b)

    def links(self) -> List[LinkSpec]:
        """Every physical link with both directed costs."""
        return [
            LinkSpec(a, b, self._costs[(a, b)], self._costs[(b, a)])
            for a, b in self.undirected_edges()
        ]

    @property
    def num_nodes(self) -> int:
        """Number of nodes (routers and hosts)."""
        return len(self._kinds)

    @property
    def num_links(self) -> int:
        """Number of physical (bidirectional) links."""
        return len(self._costs) // 2

    def average_degree(self, routers_only: bool = True) -> float:
        """Mean node degree — the paper's "connectivity" statistic.

        With ``routers_only`` (default) host attachment links are
        excluded, matching how the paper quotes 3.3 for the ISP backbone
        and 8.6 for the 50-node graph.
        """
        nodes = self.routers if routers_only else self.nodes
        if not nodes:
            return 0.0
        if routers_only:
            degrees = [
                sum(1 for m in self._adjacency[n]
                    if self._kinds[m] is NodeKind.ROUTER)
                for n in nodes
            ]
        else:
            degrees = [len(self._adjacency[n]) for n in nodes]
        return sum(degrees) / len(nodes)

    # ------------------------------------------------------------------
    # Validation & views
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`TopologyError` unless the topology is usable.

        Checks non-emptiness, connectivity, and that every host has
        exactly one attachment.
        """
        if not self._kinds:
            raise TopologyError("topology has no nodes")
        for host in self.hosts:
            if len(self._adjacency[host]) != 1:
                raise TopologyError(
                    f"host {host} has {len(self._adjacency[host])} links, expected 1"
                )
        if not self.is_connected():
            raise TopologyError(f"topology {self.name!r} is not connected")

    def is_connected(self) -> bool:
        """Whether every node can reach every other node."""
        if not self._kinds:
            return False
        start = next(iter(self._kinds))
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for neighbor in self._adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(self._kinds)

    def copy(self, name: Optional[str] = None) -> "Topology":
        """Deep copy, optionally renamed (useful for per-run cost reassignment)."""
        clone = Topology(name=name or self.name)
        clone._kinds = dict(self._kinds)
        clone._costs = dict(self._costs)
        clone._adjacency = {n: set(s) for n, s in self._adjacency.items()}
        clone._multicast_capable = dict(self._multicast_capable)
        return clone

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_links(
        cls,
        links: Iterable[Tuple[NodeId, NodeId]],
        name: str = "topology",
        multicast_capable: bool = True,
    ) -> "Topology":
        """Build an all-router topology from an undirected edge list.

        All costs default to 1; use :mod:`repro.topology.costs` to
        randomise them afterwards.
        """
        topology = cls(name=name)
        seen: Set[NodeId] = set()
        link_list = list(links)
        for a, b in link_list:
            for node in (a, b):
                if node not in seen:
                    topology.add_router(node, multicast_capable=multicast_capable)
                    seen.add(node)
        for a, b in link_list:
            topology.add_link(a, b)
        return topology

    def __repr__(self) -> str:
        return (
            f"Topology({self.name!r}, routers={len(self.routers)}, "
            f"hosts={len(self.hosts)}, links={self.num_links})"
        )
