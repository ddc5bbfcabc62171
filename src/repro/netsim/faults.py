"""The fault-injection plane: declarative, seed-reproducible fault
schedules replayed against a running simulation.

A :class:`FaultSchedule` is a plain list of timed events — link
down/up, link flap trains, router crash/restart (table wipe), and the
packet-level perturbations delay jitter, duplication and reordering
(implemented in :meth:`repro.netsim.link.Link.transmit`).  Two
replayers consume it:

- :class:`FaultInjector` arms the schedule on a live
  :class:`~repro.netsim.network.Network` (event-driven protocols);
- :class:`RoundFaultPlayer` applies the topology-level subset at round
  boundaries for the static drivers (packet-level events need a wire
  and are ignored there).

Everything stochastic inside the plane (jitter samples, duplication
coin flips) derives from the schedule's ``seed``, so a replay is
bit-identical run to run — the property the recovery experiments and
the Hypothesis fuzz suite are built on.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro._rand import derive_rng, make_rng
from repro.errors import SimulationError
from repro.obs.registry import MetricsRegistry
from repro.topology.model import NodeKind, Topology

NodeId = Hashable
LinkKey = Tuple[NodeId, NodeId]


def _link_key(a: NodeId, b: NodeId) -> LinkKey:
    """Canonical (sorted) undirected link identifier."""
    return tuple(sorted((a, b), key=str))  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Event vocabulary
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LinkDown:
    """Cut the ``a``-``b`` link at ``time``."""

    time: float
    a: NodeId
    b: NodeId
    kind = "link_down"


@dataclass(frozen=True)
class LinkUp:
    """Restore the ``a``-``b`` link at ``time``."""

    time: float
    a: NodeId
    b: NodeId
    kind = "link_up"


@dataclass(frozen=True)
class LinkFlap:
    """A flap train: ``flaps`` down/up cycles of ``period`` starting at
    ``time`` (down for the first half of each period, up for the
    second).  Expanded into plain :class:`LinkDown`/:class:`LinkUp`
    events by :meth:`FaultSchedule.expand`."""

    time: float
    a: NodeId
    b: NodeId
    flaps: int = 3
    period: float = 2.0
    kind = "link_flap"


@dataclass(frozen=True)
class RouterCrash:
    """Crash router ``node`` at ``time``: adjacent links go down and
    its protocol tables are wiped."""

    time: float
    node: NodeId
    kind = "router_crash"


@dataclass(frozen=True)
class RouterRestart:
    """Restart a crashed router (links back up, tables still empty)."""

    time: float
    node: NodeId
    kind = "router_restart"


@dataclass(frozen=True)
class LinkLoss:
    """Set the ``a``-``b`` link's i.i.d. loss rate (0.0 disables)."""

    time: float
    a: NodeId
    b: NodeId
    rate: float = 0.2
    kind = "link_loss"


@dataclass(frozen=True)
class LinkJitter:
    """Set uniform extra per-packet delay in ``[0, jitter]`` (0
    disables)."""

    time: float
    a: NodeId
    b: NodeId
    jitter: float = 5.0
    kind = "link_jitter"


@dataclass(frozen=True)
class LinkDuplicate:
    """Set the link's packet-duplication probability (0 disables)."""

    time: float
    a: NodeId
    b: NodeId
    rate: float = 0.2
    kind = "link_duplicate"


@dataclass(frozen=True)
class LinkReorder:
    """Set the link's packet-reordering probability (0 disables)."""

    time: float
    a: NodeId
    b: NodeId
    rate: float = 0.2
    kind = "link_reorder"


FaultEvent = Union[
    LinkDown, LinkUp, LinkFlap, RouterCrash, RouterRestart,
    LinkLoss, LinkJitter, LinkDuplicate, LinkReorder,
]

#: Events the round-based player can honour (topology-level).  The
#: packet-level perturbations only exist on a simulated wire.
TOPOLOGY_EVENTS = (LinkDown, LinkUp, RouterCrash, RouterRestart)


class FaultScheduleError(SimulationError):
    """An ill-formed fault schedule (bad times, unknown endpoints)."""


class FaultSchedule:
    """An ordered, validated list of timed fault events.

    ``seed`` feeds every random decision the plane makes while
    replaying (jitter samples, duplication coin flips), making the
    whole injection deterministic.  Events at equal times apply in
    list order.
    """

    def __init__(self, events: Iterable[FaultEvent], seed: int = 0,
                 name: str = "") -> None:
        self.events: Tuple[FaultEvent, ...] = tuple(events)
        self.seed = seed
        self.name = name
        for event in self.events:
            if event.time < 0:
                raise FaultScheduleError(
                    f"fault event before t=0: {event!r}"
                )
            if isinstance(event, LinkFlap) and (
                    event.flaps < 1 or event.period <= 0):
                raise FaultScheduleError(f"bad flap train: {event!r}")

    def expand(self) -> List[FaultEvent]:
        """The concrete event list: flap trains unrolled into timed
        down/up pairs, everything sorted by (time, list order)."""
        concrete: List[Tuple[float, int, FaultEvent]] = []
        order = 0
        for event in self.events:
            if isinstance(event, LinkFlap):
                for i in range(event.flaps):
                    start = event.time + i * event.period
                    concrete.append((start, order, LinkDown(
                        start, event.a, event.b)))
                    order += 1
                    mid = start + event.period / 2.0
                    concrete.append((mid, order, LinkUp(
                        mid, event.a, event.b)))
                    order += 1
            else:
                concrete.append((event.time, order, event))
                order += 1
        concrete.sort(key=lambda item: (item[0], item[1]))
        return [event for _, _, event in concrete]

    @property
    def horizon(self) -> float:
        """Time of the last concrete event (0.0 for an empty schedule)."""
        expanded = self.expand()
        return expanded[-1].time if expanded else 0.0

    def validate_against(self, topology: Topology) -> None:
        """Check every endpoint exists (links present, nodes known)."""
        for event in self.expand():
            if isinstance(event, (RouterCrash, RouterRestart)):
                topology.kind(event.node)
            else:
                if not topology.has_link(event.a, event.b):
                    raise FaultScheduleError(
                        f"{event!r}: no link {event.a}-{event.b}"
                    )

    def describe(self) -> str:
        """One line per declared event, in schedule order."""
        lines = [f"FaultSchedule {self.name or '(unnamed)'} "
                 f"(seed={self.seed}, {len(self.events)} events)"]
        for event in self.events:
            lines.append(f"  t={event.time:g} {event.kind} "
                         + _event_args(event))
        return "\n".join(lines)

    def merge(self, *timelines: Iterable) -> "Iterable":
        """This schedule's concrete events merged with other timelines
        (typically a :class:`repro.workload.schedule.ChurnSchedule`
        stream) into one time-ordered lazy stream.  At equal times this
        schedule's faults come first — a link that dies at t also kills
        the joins at t, which is the harsher and therefore the pinned
        ordering.  See :func:`merge_timelines` for the tie-break rule.
        """
        return merge_timelines(self.expand(), *timelines)

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return (f"FaultSchedule({self.name!r}, events={len(self.events)}, "
                f"seed={self.seed})")


def merge_timelines(*streams: Iterable):
    """Lazily merge timed event streams into one time-ordered stream.

    Every stream must yield events carrying a ``time`` attribute in
    non-decreasing order (fault events, membership events — anything).
    Overlapping events tie-break deterministically: equal times resolve
    by *lane* (earlier argument wins), then by within-lane position.
    Events are decorated as ``(time, lane, index)`` keys, which are
    unique, so heterogeneous event types never get compared directly.

    The merge is as lazy as its inputs — an infinite churn stream in,
    an infinite merged stream out, O(#streams) buffered events.
    """
    def decorate(lane: int, stream: Iterable):
        return (((event.time, lane, index), event)
                for index, event in enumerate(stream))

    lanes = [decorate(lane, stream) for lane, stream in enumerate(streams)]
    for _, event in heapq.merge(*lanes):
        yield event


def _event_args(event: FaultEvent) -> str:
    if isinstance(event, (RouterCrash, RouterRestart)):
        return f"node={event.node}"
    parts = [f"{event.a}-{event.b}"]
    if isinstance(event, LinkFlap):
        parts.append(f"x{event.flaps} period={event.period:g}")
    elif isinstance(event, (LinkLoss, LinkDuplicate, LinkReorder)):
        parts.append(f"rate={event.rate:g}")
    elif isinstance(event, LinkJitter):
        parts.append(f"jitter={event.jitter:g}")
    return " ".join(parts)


# ----------------------------------------------------------------------
# Event-driven replay
# ----------------------------------------------------------------------
class FaultInjector:
    """Replays a :class:`FaultSchedule` against a live network.

    ``arm()`` schedules every concrete event on the network's
    simulator (offset by ``time_offset`` so schedules can be written
    relative to their own t=0).  Each applied event increments the
    ``fault.injected.<kind>`` counter in the registry; events that no
    longer apply (downing an already-down link mid-flap-storm, say)
    are skipped and counted under ``fault.skipped.<kind>`` rather than
    aborting the replay — a fuzz schedule must never crash the run.
    """

    def __init__(self, network, schedule: FaultSchedule,
                 registry: Optional[MetricsRegistry] = None,
                 time_offset: float = 0.0) -> None:
        self.network = network
        self.schedule = schedule
        self.registry = registry if registry is not None else network.metrics
        self.time_offset = time_offset
        self.applied: List[FaultEvent] = []
        self.skipped: List[FaultEvent] = []
        self._rng = make_rng(schedule.seed)
        self._streams: Dict[Tuple[str, LinkKey], object] = {}
        schedule.validate_against(network.topology)

    def arm(self) -> int:
        """Schedule every concrete event; returns how many were armed."""
        events = self.schedule.expand()
        simulator = self.network.simulator
        for event in events:
            simulator.schedule_at(self.time_offset + event.time,
                                  self._apply, event)
        return len(events)

    def play_all(self) -> None:
        """Arm and run the simulation through the schedule horizon."""
        self.arm()
        self.network.simulator.run(
            until=self.time_offset + self.schedule.horizon
        )

    # -- application ---------------------------------------------------
    def _stream(self, kind: str, a: NodeId, b: NodeId):
        """The per-(kind, link) rng: derived once from the schedule
        seed, stable across re-configuration events."""
        key = (kind, _link_key(a, b))
        rng = self._streams.get(key)
        if rng is None:
            rng = derive_rng(
                make_rng(f"{self.schedule.seed}/{kind}/{key[1]}"), kind,
            )
            self._streams[key] = rng
        return rng

    def _apply(self, event: FaultEvent) -> None:
        try:
            self._dispatch(event)
        except SimulationError:
            self.skipped.append(event)
            self.registry.inc(f"fault.skipped.{event.kind}")
            return
        self.applied.append(event)
        self.registry.inc(f"fault.injected.{event.kind}")
        # Perturbation marker for the tree-dynamics timeline: faults
        # hit links and routers, not channels, so the timeline fans the
        # perturbation out to every channel its monitor watches.  One
        # enabled check — disabled runs pay nothing.
        timeline = self.network.timeline
        if timeline.enabled:
            timeline.perturb(self.network.simulator.now,
                             detail=f"fault {event.kind} "
                                    + _event_args(event))

    def _dispatch(self, event: FaultEvent) -> None:
        network = self.network
        if isinstance(event, LinkDown):
            network.fail_link(event.a, event.b)
        elif isinstance(event, LinkUp):
            network.restore_link(event.a, event.b)
        elif isinstance(event, RouterCrash):
            network.crash_router(event.node)
        elif isinstance(event, RouterRestart):
            network.restart_router(event.node)
        elif isinstance(event, LinkLoss):
            network.link_between(event.a, event.b).set_loss(
                event.rate,
                self._stream("loss", event.a, event.b)
                if event.rate > 0 else None,
            )
        elif isinstance(event, LinkJitter):
            network.link_between(event.a, event.b).set_jitter(
                event.jitter,
                self._stream("jitter", event.a, event.b)
                if event.jitter > 0 else None,
            )
        elif isinstance(event, LinkDuplicate):
            network.link_between(event.a, event.b).set_duplication(
                event.rate,
                self._stream("duplicate", event.a, event.b)
                if event.rate > 0 else None,
            )
        elif isinstance(event, LinkReorder):
            network.link_between(event.a, event.b).set_reordering(
                event.rate,
                self._stream("reorder", event.a, event.b)
                if event.rate > 0 else None,
            )
        else:  # pragma: no cover - exhaustive over FaultEvent
            raise FaultScheduleError(f"unknown fault event {event!r}")


# ----------------------------------------------------------------------
# Round-based replay (static drivers)
# ----------------------------------------------------------------------
class RoundFaultPlayer:
    """Applies the topology-level events of a schedule to a bare
    ``Topology``, at round granularity.

    The static drivers have no wire, so the packet-level perturbations
    (loss/jitter/duplication/reordering) are counted as ignored rather
    than applied.  Link cuts follow the Network semantics exactly: the
    directed costs jump to ``FAILED_LINK_COST`` (routing reconverges
    around the cut) and are restored verbatim on the matching up event.
    """

    #: Same sentinel as :attr:`repro.netsim.network.Network.FAILED_LINK_COST`.
    FAILED_LINK_COST = 1e12

    def __init__(self, topology: Topology, schedule: FaultSchedule,
                 on_crash: Optional[Callable[[NodeId], None]] = None,
                 on_restart: Optional[Callable[[NodeId], None]] = None
                 ) -> None:
        schedule.validate_against(topology)
        self.topology = topology
        self.schedule = schedule
        self.on_crash = on_crash
        self.on_restart = on_restart
        self._pending = schedule.expand()
        self._cursor = 0
        self._saved: Dict[LinkKey, Tuple[float, float]] = {}
        self._crashed: Dict[NodeId, List[LinkKey]] = {}
        self.ignored: List[FaultEvent] = []

    @property
    def exhausted(self) -> bool:
        """Whether every event has been applied."""
        return self._cursor >= len(self._pending)

    @property
    def down_links(self) -> FrozenSet[LinkKey]:
        """Links currently cut (by link events or crashes)."""
        return frozenset(self._saved)

    def advance(self, now: float) -> int:
        """Apply every not-yet-applied event with ``time <= now``;
        returns how many were applied.

        Routing needs no call: :class:`~repro.routing.tables.UnicastRouting`
        observes the ``set_cost`` calls and repairs affected origin
        trees lazily.
        """
        applied = 0
        while (self._cursor < len(self._pending)
               and self._pending[self._cursor].time <= now):
            event = self._pending[self._cursor]
            self._cursor += 1
            if not isinstance(event, TOPOLOGY_EVENTS):
                self.ignored.append(event)
                continue
            self._dispatch(event)
            applied += 1
        return applied

    def finish(self) -> int:
        """Apply everything left, regardless of time."""
        return self.advance(float("inf"))

    # -- topology surgery ----------------------------------------------
    def _cut(self, a: NodeId, b: NodeId) -> bool:
        key = _link_key(a, b)
        if key in self._saved:
            return False  # already down — idempotent, like the injector skip
        self._saved[key] = (self.topology.cost(key[0], key[1]),
                            self.topology.cost(key[1], key[0]))
        self.topology.set_cost(key[0], key[1], self.FAILED_LINK_COST)
        self.topology.set_cost(key[1], key[0], self.FAILED_LINK_COST)
        return True

    def _restore(self, a: NodeId, b: NodeId) -> None:
        key = _link_key(a, b)
        saved = self._saved.pop(key, None)
        if saved is not None:
            self.topology.set_cost(key[0], key[1], saved[0])
            self.topology.set_cost(key[1], key[0], saved[1])

    def _dispatch(self, event: FaultEvent) -> None:
        if isinstance(event, LinkDown):
            self._cut(event.a, event.b)
        elif isinstance(event, LinkUp):
            self._restore(event.a, event.b)
        elif isinstance(event, RouterCrash):
            if event.node in self._crashed:
                return
            cut = []
            for neighbor in self.topology.neighbors(event.node):
                if self._cut(event.node, neighbor):
                    cut.append(_link_key(event.node, neighbor))
            self._crashed[event.node] = cut
            if self.on_crash is not None:
                self.on_crash(event.node)
        elif isinstance(event, RouterRestart):
            cut = self._crashed.pop(event.node, None)
            if cut is None:
                return
            for key in cut:
                self._restore(*key)
            if self.on_restart is not None:
                self.on_restart(event.node)


# ----------------------------------------------------------------------
# Connectivity guard & random schedules
# ----------------------------------------------------------------------
def keeps_group_connected(topology: Topology, source: NodeId,
                          receivers: Iterable[NodeId],
                          down_links: Iterable[LinkKey] = (),
                          crashed: Iterable[NodeId] = ()) -> bool:
    """Whether every receiver stays reachable from ``source`` with the
    given links cut and routers crashed — the invariant fuzzed fault
    schedules must preserve at quiescence (a disconnected receiver can
    never recover, so the oracle would trivially fail)."""
    down = {_link_key(a, b) for a, b in down_links}
    dead = set(crashed)
    if source in dead:
        return False
    targets = set(receivers) - {source}
    if targets & dead:
        return False
    frontier = [source]
    seen = {source}
    while frontier:
        node = frontier.pop()
        for neighbor in topology.neighbors(node):
            if neighbor in seen or neighbor in dead:
                continue
            if _link_key(node, neighbor) in down:
                continue
            seen.add(neighbor)
            frontier.append(neighbor)
    return targets <= seen


def candidate_fault_links(topology: Topology, source: NodeId,
                          receivers: Iterable[NodeId]) -> List[LinkKey]:
    """Router-router links eligible for fuzzed faults: cutting a host
    access link of the source or a receiver can never heal, so those
    are excluded up front."""
    endpoints = {source, *receivers}
    keys = []
    for a, b in topology.undirected_edges():
        if a in endpoints or b in endpoints:
            continue
        if (topology.kind(a) is NodeKind.HOST
                or topology.kind(b) is NodeKind.HOST):
            continue
        keys.append(_link_key(a, b))
    return sorted(keys, key=str)


def close_schedule(events: List[FaultEvent], topology: Topology,
                   source: NodeId, receivers: Iterable[NodeId],
                   heal_time: float) -> List[FaultEvent]:
    """Append the up/restart events needed so the final fault state
    leaves the source-receiver graph connected.

    Walks the schedule's end state; any still-crashed router is
    restarted and any still-down link whose absence breaks
    connectivity is restored at ``heal_time``.  Returns a new list.
    """
    down: Set[LinkKey] = set()
    crashed: Set[NodeId] = set()
    for event in FaultSchedule(events).expand():
        if isinstance(event, LinkDown):
            down.add(_link_key(event.a, event.b))
        elif isinstance(event, LinkUp):
            down.discard(_link_key(event.a, event.b))
        elif isinstance(event, RouterCrash):
            crashed.add(event.node)
        elif isinstance(event, RouterRestart):
            crashed.discard(event.node)
    closed = list(events)
    for node in sorted(crashed, key=str):
        closed.append(RouterRestart(heal_time, node))
    receivers = list(receivers)
    # Greedy: walk the still-down links; restore any whose presence in
    # the remaining down set breaks connectivity.  Restoring only ever
    # improves connectivity, so the surviving set is connected.
    for key in sorted(down, key=str):
        if not keeps_group_connected(topology, source, receivers,
                                     down_links=down):
            closed.append(LinkUp(heal_time, *key))
            down = down - {key}
    return closed


def random_schedule(topology: Topology, source: NodeId,
                    receivers: Iterable[NodeId], seed: int = 0,
                    events: int = 8, horizon: float = 10.0,
                    allow_crashes: bool = True) -> FaultSchedule:
    """A seed-reproducible random fault schedule that ends connected.

    Draws ``events`` faults (cuts, restores, flaps and — optionally —
    crash/restart pairs) over the eligible router-router links, then
    closes the schedule so the group is reconnected by ``horizon``.
    """
    rng = make_rng(seed)
    receivers = list(receivers)
    links = candidate_fault_links(topology, source, receivers)
    routers = sorted(
        (node for node in topology.routers
         if node != source and node not in receivers),
        key=str,
    )
    drawn: List[FaultEvent] = []
    down: Set[LinkKey] = set()
    for _ in range(events):
        if not links:
            break
        time = round(rng.uniform(0.0, horizon * 0.7), 1)
        roll = rng.random()
        if roll < 0.4 or not down:
            key = links[rng.randrange(len(links))]
            if key not in down:
                drawn.append(LinkDown(time, *key))
                down.add(key)
        elif roll < 0.7:
            key = sorted(down, key=str)[rng.randrange(len(down))]
            drawn.append(LinkUp(time, *key))
            down.discard(key)
        elif roll < 0.9 or not (allow_crashes and routers):
            key = links[rng.randrange(len(links))]
            if key not in down:
                drawn.append(LinkFlap(time, *key,
                                      flaps=rng.randint(1, 3),
                                      period=round(rng.uniform(1.0, 3.0), 1)))
        else:
            node = routers[rng.randrange(len(routers))]
            drawn.append(RouterCrash(time, node))
            drawn.append(RouterRestart(
                round(time + rng.uniform(1.0, 3.0), 1), node))
    drawn.sort(key=lambda event: event.time)
    closed = close_schedule(drawn, topology, source, receivers,
                            heal_time=horizon)
    return FaultSchedule(closed, seed=seed, name=f"random-{seed}")
