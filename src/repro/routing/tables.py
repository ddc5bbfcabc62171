"""Per-node forwarding tables and the network-wide routing view.

:class:`UnicastRouting` computes and caches the shortest-path trees of
every node lazily; :class:`RoutingTable` is one node's view (the
longest-lived object the protocol agents touch on every packet).

The split mirrors reality: a router only ever consults *its own* table
(``next_hop``), while the experiment harness uses the global view for
path and delay calculations.

Cost changes are tracked *incrementally*: a :class:`DeltaLog` listens
on the topology, appends every effective ``set_cost``, and repairs each
table lazily — on its next query — via
:func:`repro.routing.incremental.repair_tree`, touching only the
origins whose trees the deltas actually cross.  The view and each of
its tables hold the log, and the log holds the topology; nothing
points back (the topology's listener and its :func:`shared_routing`
memo refer weakly), so a dropped view is freed at once with its tables
and distance maps, not at the next full collection.  A per-origin
``generation`` counter lets downstream memoizers (the static drivers'
walk plans, the on-SPT cache) revalidate per origin instead of
rebuilding wholesale.  Setting ``REPRO_ROUTING_FULL=1`` in the
environment is the escape hatch: every repair becomes a from-scratch
Dijkstra rebuild (still lazy, still per-origin), which the determinism
tests use to prove the two modes byte-identical.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from repro.errors import RoutingError
from repro.obs.profiling import PROFILER
from repro.routing.dijkstra import shortest_paths_from
from repro.routing.incremental import repair_tree
from repro.topology.model import Topology

NodeId = Hashable

#: Environment flag selecting the full-recompute escape hatch.
FULL_RECOMPUTE_ENV = "REPRO_ROUTING_FULL"

_ABSENT = object()


@dataclass
class RepairStats:
    """Counters describing how the incremental substrate has worked.

    ``origins_changed`` / ``origins_clean`` split the refreshes by
    whether the pending deltas actually moved that origin's tree — the
    scale tests assert a single link event leaves almost every origin
    clean.  ``full_rebuilds`` counts refreshes served by a from-scratch
    Dijkstra (escape hatch, overflowed delta log, or the batch-size
    heuristic); ``nodes_touched`` sums the changed node sets.
    """

    refreshes: int = 0
    origins_changed: int = 0
    origins_clean: int = 0
    full_rebuilds: int = 0
    nodes_touched: int = 0

    def reset(self) -> None:
        self.refreshes = 0
        self.origins_changed = 0
        self.origins_clean = 0
        self.full_rebuilds = 0
        self.nodes_touched = 0


class RoutingTable:
    """One node's unicast forwarding view (destination -> next hop).

    Stores the origin's shortest-path tree sparsely — the ``(distance,
    predecessor)`` maps — and derives next hops on demand by walking a
    predecessor chain once, memoizing the whole chain (every node on it
    shares the same first hop).  A table built by a
    :class:`UnicastRouting` synchronises itself on every query: one
    integer compare against its :class:`DeltaLog`'s sequence, then a
    lazy repair when costs changed since the last read.  Holders may
    therefore keep a table reference indefinitely, with or without its
    view; it never goes silently stale.

    :attr:`generation` bumps only when *this origin's* routes actually
    changed, so memoizers of per-origin route facts can revalidate
    without a wholesale flush.
    """

    __slots__ = ("node", "_dist", "_pred", "_next_hops", "_deltas",
                 "applied_seq", "generation", "__weakref__")

    def __init__(
        self,
        node: NodeId,
        distances: Dict[NodeId, float],
        predecessors: Dict[NodeId, Optional[NodeId]],
        deltas: Optional["DeltaLog"] = None,
    ) -> None:
        self.node = node
        self._dist = distances
        self._pred = predecessors
        self._next_hops: Dict[NodeId, NodeId] = {}
        self._deltas = deltas
        #: The delta-log sequence this table has applied.
        self.applied_seq = 0 if deltas is None else deltas.seq
        #: Bumped (to the log's global generation) whenever a repair
        #: changes this origin's routes.
        self.generation = 0 if deltas is None else deltas.generation

    def _sync(self) -> None:
        deltas = self._deltas
        if deltas is not None and self.applied_seq != deltas.seq:
            deltas.refresh(self)

    def next_hop(self, destination: NodeId) -> NodeId:
        """The neighbor to which traffic for ``destination`` is forwarded.

        Raises :class:`RoutingError` for the node itself or unreachable
        destinations.
        """
        self._sync()
        hop = self._next_hops.get(destination)
        if hop is not None:
            return hop
        if destination == self.node:
            raise RoutingError(f"{self.node}: no next hop to self")
        pred = self._pred
        if destination not in pred:
            raise RoutingError(
                f"{self.node}: no route to {destination}"
            )
        # Walk the predecessor chain back toward this node, stopping
        # early at any already-memoized ancestor; every node visited
        # shares the ancestor's first hop.
        node = self.node
        hops = self._next_hops
        chain = []
        cursor = destination
        while True:
            chain.append(cursor)
            parent = pred[cursor]
            if parent == node:
                first = cursor
                break
            cached = hops.get(parent)
            if cached is not None:
                first = cached
                break
            if parent is None:  # pragma: no cover - connected topology
                raise RoutingError(
                    f"broken predecessor chain {node} -> {destination}"
                )
            cursor = parent
        for n in chain:
            hops[n] = first
        return first

    def distance(self, destination: NodeId) -> float:
        """Total directed cost from this node to ``destination``."""
        self._sync()
        try:
            return self._dist[destination]
        except KeyError:
            raise RoutingError(
                f"{self.node}: no route to {destination}"
            ) from None

    def distances(self) -> Mapping[NodeId, float]:
        """A read-only view of every destination's distance (this node
        included, at 0.0), for callers that read many: one sync instead
        of one per :meth:`distance` call.  Valid until the next cost
        change; fetch it again after one."""
        self._sync()
        return MappingProxyType(self._dist)

    def predecessor(self, destination: NodeId) -> Optional[NodeId]:
        """``destination``'s parent in this origin's shortest-path tree
        (``None`` for the node itself); raises on unreachable nodes."""
        self._sync()
        try:
            return self._pred[destination]
        except KeyError:
            raise RoutingError(
                f"{self.node}: no route to {destination}"
            ) from None

    def destinations(self) -> List[NodeId]:
        """All reachable destinations (excluding the node itself), sorted."""
        self._sync()
        node = self.node
        return sorted(d for d in self._dist if d != node)

    def __repr__(self) -> str:
        return f"RoutingTable(node={self.node}, routes={len(self._dist) - 1})"


class DeltaLog:
    """The cost-delta log one routing view and its tables share.

    Registers a weak cost listener on the topology, records every
    effective ``set_cost``, and repairs tables lazily on their next
    query (:meth:`refresh`).  It holds the topology but no view and no
    table, so holding a table keeps only its log (and the topology)
    alive, and the table still follows every later cost change.
    """

    __slots__ = ("topology", "seq", "generation", "entries", "base", "cap",
                 "full_recompute", "stats", "__weakref__")

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        #: Monotone count of cost deltas observed; each table records
        #: the sequence it has applied.
        self.seq = 0
        #: Bumped on every cost delta and by
        #: :meth:`UnicastRouting.invalidate`.  Consumers that memoize
        #: route facts (e.g. the static driver's walk plans) compare
        #: this to learn that *something* changed, then use
        #: :meth:`UnicastRouting.origin_generation` to keep every fact
        #: whose origins did not.
        self.generation = 0
        #: ``(a, b, old_cost)`` per effective ``set_cost``, entry ``i``
        #: carrying sequence ``base + i`` (the new cost is read off the
        #: live topology at repair time).
        self.entries: List[Tuple[NodeId, NodeId, float]] = []
        self.base = 1
        #: Overflow guard: past this length the oldest half of the log
        #: is dropped and tables that old fall back to a full rebuild.
        self.cap = max(256, 4 * topology.num_links)
        #: Escape hatch (``REPRO_ROUTING_FULL=1``): serve every refresh
        #: with a from-scratch Dijkstra instead of a repair.
        self.full_recompute = (
            os.environ.get(FULL_RECOMPUTE_ENV, "") not in ("", "0")
        )
        self.stats = RepairStats()
        # Register weakly: the topology outliving this log (tests and
        # benchmarks build many views over one fixture topology) must
        # not pin every view's tables in memory forever.
        self_ref = weakref.ref(self)

        def _listener(a: NodeId, b: NodeId, old: float, new: float,
                      _ref=self_ref) -> None:
            deltas = _ref()
            if deltas is not None:
                deltas.record(a, b, old)

        topology.add_cost_listener(_listener)

    def record(self, a: NodeId, b: NodeId, old: float) -> None:
        """Log one effective cost change of directed edge ``a -> b``."""
        self.seq += 1
        self.generation += 1
        entries = self.entries
        entries.append((a, b, old))
        if len(entries) > self.cap:
            drop = len(entries) // 2
            del entries[:drop]
            self.base += drop

    def restart(self) -> None:
        """Forget every logged delta and advance :attr:`generation`:
        tables older than now fall back to a full rebuild."""
        self.generation += 1
        self.entries.clear()
        self.base = self.seq + 1

    def refresh(self, table: RoutingTable) -> None:
        """Bring ``table`` up to the current sequence (repair or
        rebuild), bumping its generation only on real change."""
        seq = self.seq
        applied = table.applied_seq
        with PROFILER.span("routing.repair"):
            if self.full_recompute or applied + 1 < self.base:
                changed = self._rebuild(table)
            else:
                # Coalesce the pending window per directed edge: the
                # oldest logged cost is what the table still assumes,
                # the live topology holds the net result.  Edges that
                # round-tripped (down then up) net out and are skipped —
                # the table never observed the intermediate state.
                start = applied + 1 - self.base
                pending: Dict[Tuple[NodeId, NodeId], float] = {}
                setdefault = pending.setdefault
                for a, b, old in self.entries[start:]:
                    setdefault((a, b), old)
                cost = self.topology.cost
                deltas = []
                for (a, b), old in pending.items():
                    new = cost(a, b)
                    if new != old:
                        deltas.append((a, b, old, new))
                if not deltas:
                    changed = set()
                elif 3 * len(deltas) >= 2 * self.topology.num_links:
                    # Most of the graph moved; a fresh Dijkstra is
                    # cheaper than repairing edge by edge (and produces
                    # the identical canonical tree).
                    changed = self._rebuild(table)
                else:
                    changed = repair_tree(
                        self.topology, table.node,
                        table._dist, table._pred, deltas,
                    )
            table.applied_seq = seq
            stats = self.stats
            stats.refreshes += 1
            if changed:
                stats.origins_changed += 1
                stats.nodes_touched += len(changed)
                table.generation = self.generation
                table._next_hops.clear()
            else:
                stats.origins_clean += 1

    def _rebuild(self, table: RoutingTable):
        """From-scratch Dijkstra for one table, with change detection."""
        dist, pred = shortest_paths_from(self.topology, table.node)
        old_dist, old_pred = table._dist, table._pred
        changed = {
            n for n in dist.keys() | old_dist.keys()
            if dist.get(n, _ABSENT) != old_dist.get(n, _ABSENT)
            or pred.get(n, _ABSENT) != old_pred.get(n, _ABSENT)
        }
        table._dist = dist
        table._pred = pred
        self.stats.full_rebuilds += 1
        return changed


class UnicastRouting:
    """Shortest-path unicast routing for a whole topology.

    Tables are computed on demand (one Dijkstra per *origin* node) and
    cached.  Cost mutations reach them through the view's
    :class:`DeltaLog`, as lazy incremental repairs; ``invalidate()``
    remains as the wholesale fallback (and is still required after
    *structural* mutations such as ``add_link``).  All route queries in
    the library flow through this class so that HBH, REUNITE and the
    PIM baselines see the exact same unicast substrate, as the paper
    assumes.
    """

    def __init__(self, topology: Topology) -> None:
        topology.validate()
        self.topology = topology
        self._deltas = DeltaLog(topology)
        #: Repair counters, shared with the delta log.
        self.stats = self._deltas.stats
        self._tables: Dict[NodeId, RoutingTable] = {}
        #: Full forward paths, memoized as immutable tuples so hot
        #: consumers (the static driver's message walks) can iterate a
        #: route without one ``next_hop`` call per hop.  Flushed
        #: wholesale (they are cross-table facts: each hop consults its
        #: own table) the first time a path is asked for after deltas.
        self._paths: Dict[Tuple[NodeId, NodeId], Tuple[NodeId, ...]] = {}
        self._paths_seq = 0

    @property
    def generation(self) -> int:
        """The delta log's global generation (:attr:`DeltaLog.generation`)."""
        return self._deltas.generation

    @property
    def full_recompute(self) -> bool:
        """Whether the ``REPRO_ROUTING_FULL`` escape hatch is on."""
        return self._deltas.full_recompute

    def refresh_all(self) -> int:
        """Eagerly repair every cached table; returns how many changed.

        Queries repair lazily on their own — this exists for callers
        that want the repair cost accounted *now* (benchmarks, the
        scale tests' affected-origin assertions).
        """
        changed = 0
        deltas = self._deltas
        for table in self._tables.values():
            before = table.generation
            if table.applied_seq != deltas.seq:
                deltas.refresh(table)
            if table.generation != before:
                changed += 1
        return changed

    def export_repair_metrics(self, registry) -> None:
        """Fold :attr:`stats` into ``registry`` as ``routing.repair.*``
        counters.  Increments by the delta against the counter's
        current value, so the export is idempotent per state and safe
        to call repeatedly (sweep cells export once per run into fresh
        registries; long-lived networks may export per probe)."""
        stats = self.stats
        for name, value in (
            ("routing.repair.refreshes", stats.refreshes),
            ("routing.repair.origins_changed", stats.origins_changed),
            ("routing.repair.origins_clean", stats.origins_clean),
            ("routing.repair.full_rebuilds", stats.full_rebuilds),
            ("routing.repair.nodes_touched", stats.nodes_touched),
        ):
            counter = registry.counter(name)
            counter.inc(max(0.0, float(value) - counter.value))

    def origin_generation(self, origin: NodeId) -> Optional[int]:
        """The current generation of ``origin``'s table, or ``None``
        when no table is cached (callers must treat ``None`` as
        "assume changed": an uncached origin has no identity to pin a
        memoized fact to)."""
        table = self._tables.get(origin)
        if table is None:
            return None
        deltas = self._deltas
        if table.applied_seq != deltas.seq:
            deltas.refresh(table)
        return table.generation

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def table(self, node: NodeId) -> RoutingTable:
        """The forwarding table of ``node`` (computed lazily)."""
        cached = self._tables.get(node)
        if cached is not None:
            deltas = self._deltas
            if cached.applied_seq != deltas.seq:
                deltas.refresh(cached)
            return cached
        with PROFILER.span("routing.table_build"):
            return self._build_table(node)

    def _build_table(self, node: NodeId) -> RoutingTable:
        distance, predecessor = shortest_paths_from(self.topology, node)
        table = RoutingTable(node, distance, predecessor, self._deltas)
        self._tables[node] = table
        return table

    def next_hop(self, node: NodeId, destination: NodeId) -> NodeId:
        """Next hop at ``node`` for traffic toward ``destination``."""
        # Per-hop path: a synced table is read in place; table() is
        # called only to build or repair one.
        table = self._tables.get(node)
        if table is None or table.applied_seq != self._deltas.seq:
            table = self.table(node)
        hop = table._next_hops.get(destination)
        if hop is None:
            return table.next_hop(destination)  # memoizes, or raises
        return hop

    def path(self, origin: NodeId, destination: NodeId) -> List[NodeId]:
        """The full unicast path ``[origin, ..., destination]``.

        This is the *forward* path — with asymmetric costs it generally
        differs from ``path(destination, origin)`` reversed.  Returns a
        fresh list (callers may mutate it); use :meth:`path_tuple` on
        hot paths to share the memoized tuple instead.
        """
        return list(self.path_tuple(origin, destination))

    def path_tuple(self, origin: NodeId,
                   destination: NodeId) -> Tuple[NodeId, ...]:
        """The memoized forward path ``(origin, ..., destination)``.

        Identical hop sequence to chaining :meth:`next_hop` (that is
        how it is built), cached until the next cost delta.  The tuple
        is shared — do not mutate-by-copy unless you must.
        """
        seq = self._deltas.seq
        if self._paths_seq != seq:
            self._paths.clear()
            self._paths_seq = seq
        key = (origin, destination)
        cached = self._paths.get(key)
        if cached is not None:
            return cached
        if origin == destination:
            path: List[NodeId] = [origin]
        else:
            path = [origin]
            node = origin
            guard = self.topology.num_nodes + 1
            while node != destination:
                node = self.next_hop(node, destination)
                path.append(node)
                guard -= 1
                if guard == 0:  # pragma: no cover - tables are loop-free
                    raise RoutingError(
                        f"forwarding loop between {origin} and {destination}"
                    )
        result = tuple(path)
        self._paths[key] = result
        return result

    def distance(self, origin: NodeId, destination: NodeId) -> float:
        """Directed shortest-path cost from ``origin`` to ``destination``."""
        if origin == destination:
            return 0.0
        table = self._tables.get(origin)
        if table is None or table.applied_seq != self._deltas.seq:
            table = self.table(origin)
        distance = table._dist.get(destination)
        if distance is None:
            return table.distance(destination)  # raises RoutingError
        return distance

    def invalidate(self) -> None:
        """Drop every cached table and path, advancing
        :attr:`generation`.

        Cost mutations no longer need this — the cost listener feeds
        them to the lazy repairs — but it remains the required call
        after *structural* topology changes, and the wholesale
        semantics some callers (and tests) rely on.
        """
        self._tables.clear()
        self._paths.clear()
        # Dropped tables can never consume the log; restart it.
        self._deltas.restart()


def shared_routing(topology: Topology) -> UnicastRouting:
    """The memoized :class:`UnicastRouting` for ``topology``.

    Keyed on topology *identity* (the instance, not its contents), so
    every consumer of one topology draw — the four paired protocols of
    a Monte-Carlo run, the convergence oracle, the explain CLI — shares
    one table cache instead of re-running identical Dijkstras.
    ``Topology.copy()`` produces a fresh instance and therefore a fresh
    routing view, which is what per-fraction/per-spread cost mutation
    needs.  Cost mutations on a live topology are tracked by the shared
    view's :class:`DeltaLog` (it listens on ``set_cost``), so every
    holder observes the repaired routes — costs are topology-level
    state.

    The topology refers to its view weakly: the view lives as long as
    someone holds it, and the next call after that builds a new one.
    """
    ref = topology.__dict__.get("_shared_routing")
    routing = None if ref is None else ref()
    if routing is None:
        routing = UnicastRouting(topology)
        topology.__dict__["_shared_routing"] = weakref.ref(routing)
    return routing
