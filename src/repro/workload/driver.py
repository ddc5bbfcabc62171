"""Churn replayers for both planes.

Two consumers turn a (possibly fault-merged) event stream into live
protocol activity, the same split the fault plane uses:

- :class:`RoundChurnPlayer` advances a cursor over the stream at round
  granularity for the static drivers, holding at most one pending
  event in memory (the stream stays lazy end to end);
- :class:`ChurnInjector` pumps the stream through a
  :class:`~repro.netsim.engine.Simulator` one event at a time for the
  event-driven plane.

Both own a :class:`~repro.workload.membership.MembershipLedger` and
only surface the *edges* to the protocol callbacks: a site's first
live session fires ``on_first`` (join the protocol receiver), its last
fires ``on_last`` (leave).  Everything in between — overlapping
sessions, aggregated populations — is absorbed by the ledger and
counted in the registry:

- ``churn.events.join`` / ``churn.events.leave`` — stream events seen,
- ``churn.hosts.join`` / ``churn.hosts.leave`` — host-weighted volume,
- ``churn.edges.join`` / ``churn.edges.leave`` — protocol-visible edges.

Fault events encountered in a merged stream (see
:meth:`repro.netsim.faults.FaultSchedule.merge`) are handed to the
fault plane's own replayers in stream order, so ordering is defined in
exactly one place.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, Optional

from repro.netsim.faults import FaultInjector, RoundFaultPlayer
from repro.obs.registry import Counter, MetricsRegistry
from repro.workload.membership import MembershipLedger
from repro.workload.schedule import JOIN, LEAVE, MembershipEvent

EdgeCallback = Callable[[MembershipEvent], None]


class RoundChurnPlayer:
    """Replays a churn stream against round-driven (static) protocols.

    ``advance(now)`` applies every event with ``time <= now`` — the
    same cursor contract as :class:`~repro.netsim.faults.RoundFaultPlayer`.
    Fault events in a merged stream are forwarded to ``fault_player``
    (its own cursor is advanced to the event's time, which applies that
    fault and any it was tied with); membership events go through the
    ledger and surface edges via ``on_first`` / ``on_last``.
    """

    def __init__(self, stream: Iterable, *,
                 on_first: Optional[EdgeCallback] = None,
                 on_last: Optional[EdgeCallback] = None,
                 fault_player: Optional[RoundFaultPlayer] = None,
                 registry: Optional[MetricsRegistry] = None,
                 ledger: Optional[MembershipLedger] = None,
                 labels: Optional[dict] = None) -> None:
        self._stream: Iterator = iter(stream)
        self._pending = None
        self.on_first = on_first
        self.on_last = on_last
        self.fault_player = fault_player
        self.registry = registry
        self.ledger = ledger if ledger is not None else MembershipLedger()
        self.labels = dict(labels or {})
        self._counters: Dict[str, Counter] = {}
        self.exhausted = False
        self.events_applied = 0
        self.faults_seen = 0

    def advance(self, now: float) -> int:
        """Apply every not-yet-applied event with ``time <= now``;
        returns how many were applied."""
        applied = 0
        event = self._pending
        self._pending = None
        while True:
            if event is None:
                event = next(self._stream, None)
                if event is None:
                    self.exhausted = True
                    break
            if event.time > now:
                self._pending = event
                break
            self._apply(event)
            applied += 1
            event = None
        self.events_applied += applied
        return applied

    def finish(self) -> int:
        """Apply everything left, regardless of time."""
        return self.advance(float("inf"))

    # ------------------------------------------------------------------
    def _apply(self, event) -> None:
        kind = event.kind
        if kind == JOIN:
            self._count("churn.events.join", 1)
            self._count("churn.hosts.join", event.hosts)
            if self.ledger.add(event.channel, event.site,
                               hosts=event.hosts, now=event.time):
                self._count("churn.edges.join", 1)
                if self.on_first is not None:
                    self.on_first(event)
        elif kind == LEAVE:
            self._count("churn.events.leave", 1)
            self._count("churn.hosts.leave", event.hosts)
            if self.ledger.remove(event.channel, event.site,
                                  hosts=event.hosts):
                self._count("churn.edges.leave", 1)
                if self.on_last is not None:
                    self.on_last(event)
        else:
            # A fault event from a merged timeline: same-time ordering
            # is the merge's contract (faults sort before churn), and
            # advancing the fault player's own cursor to this time
            # preserves it.
            self.faults_seen += 1
            if self.fault_player is not None:
                self.fault_player.advance(event.time)
            else:
                self._count(f"churn.faults.ignored.{kind}", 1)

    def _count(self, name: str, value: float) -> None:
        if self.registry is not None:
            counter = self._counters.get(name)
            if counter is None:
                # Resolved once per name: registry.inc() would build
                # and sort the label key on every event.
                counter = self._counters[name] = self.registry.counter(
                    name, **self.labels)
            counter.inc(float(value))

    def __repr__(self) -> str:
        return (f"RoundChurnPlayer(applied={self.events_applied}, "
                f"exhausted={self.exhausted}, ledger={self.ledger!r})")


class ChurnInjector:
    """Pumps a churn stream through the event engine, lazily.

    One pending simulator callback exists at any moment: firing an
    event applies it and schedules the next, so a million-event stream
    never sits in the event queue.  Membership edges fire ``on_first``
    / ``on_last`` (typically :meth:`~repro.core.protocol.HbhChannel.join`
    / ``leave`` or IGMP host joins); fault events are applied through
    ``fault_injector`` (a :class:`~repro.netsim.faults.FaultInjector`
    armed on the same network) at their merged position.
    """

    def __init__(self, network, stream: Iterable, *,
                 on_first: Optional[EdgeCallback] = None,
                 on_last: Optional[EdgeCallback] = None,
                 fault_injector: Optional[FaultInjector] = None,
                 registry: Optional[MetricsRegistry] = None,
                 ledger: Optional[MembershipLedger] = None,
                 time_offset: float = 0.0,
                 labels: Optional[dict] = None) -> None:
        self.network = network
        self._stream: Iterator = iter(stream)
        self.on_first = on_first
        self.on_last = on_last
        self.fault_injector = fault_injector
        self.registry = registry if registry is not None else network.metrics
        self.ledger = ledger if ledger is not None else MembershipLedger()
        self.time_offset = time_offset
        self.labels = dict(labels or {})
        self._counters: Dict[str, Counter] = {}
        self.events_applied = 0
        self.exhausted = False

    def arm(self) -> bool:
        """Schedule the first event; returns False for an empty stream."""
        return self._schedule_next()

    def _schedule_next(self) -> bool:
        event = next(self._stream, None)
        if event is None:
            self.exhausted = True
            return False
        self.network.simulator.schedule_at(
            self.time_offset + event.time, self._fire, event
        )
        return True

    def _fire(self, event) -> None:
        kind = event.kind
        if kind == JOIN:
            self._count("churn.events.join", 1)
            self._count("churn.hosts.join", event.hosts)
            if self.ledger.add(event.channel, event.site,
                               hosts=event.hosts, now=event.time):
                self._count("churn.edges.join", 1)
                if self.on_first is not None:
                    self.on_first(event)
        elif kind == LEAVE:
            self._count("churn.events.leave", 1)
            self._count("churn.hosts.leave", event.hosts)
            if self.ledger.remove(event.channel, event.site,
                                  hosts=event.hosts):
                self._count("churn.edges.leave", 1)
                if self.on_last is not None:
                    self.on_last(event)
        elif self.fault_injector is not None:
            self.fault_injector._apply(event)
        else:
            self._count(f"churn.faults.ignored.{kind}", 1)
        self.events_applied += 1
        self._schedule_next()

    _count = RoundChurnPlayer._count

    def __repr__(self) -> str:
        return (f"ChurnInjector(applied={self.events_applied}, "
                f"exhausted={self.exhausted}, ledger={self.ledger!r})")
