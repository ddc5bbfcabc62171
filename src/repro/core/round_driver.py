"""The soft-state period shared by the round-based protocol drivers.

HBH and REUNITE run the same period (paper Sections 2-3): every
receiver's periodic join walks toward the source, the source's tree
messages cascade down the tree, and entries that miss their refreshes
go stale (t1) and are destroyed (t2).  :class:`RoundDriver` executes
that period synchronously, one round per refresh interval, and owns
everything around it: membership, convergence, the causal tracer,
flight recorder and timeline seams, and introspection.

A protocol subclasses it with four class attributes (:attr:`protocol`,
:attr:`unit`, :attr:`state_cls`, :attr:`join_cls`) and the hooks
below; :class:`~repro.core.static_driver.StaticHbh` and
:class:`~repro.protocols.reunite.static_driver.StaticReunite` are the
two implementations.
"""

from __future__ import annotations

import abc
from dataclasses import replace
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from repro.core.tables import ProtocolTiming, ROUND_TIMING
from repro.errors import ChannelError, ProtocolError
from repro.metrics.distribution import DataDistribution
from repro.obs.causal import INITIAL_JOIN, JOIN, CausalTracer, Span
from repro.obs.flight import FlightRecorder
from repro.obs.profiling import PROFILER
from repro.obs.registry import channel_label
from repro.obs.timeline import ConvergenceMonitor, TreeTimeline
from repro.routing.tables import UnicastRouting, shared_routing
from repro.topology.model import NodeKind, Topology

NodeId = Hashable

#: Safety valve for in-round message cascades.
MAX_CASCADE = 100_000


class RoundDriver(abc.ABC):
    """One multicast tree driven round-by-round to convergence.

    Node ids double as protocol addresses (the static drivers never
    leave the topology layer).  Only multicast-capable *routers* apply
    the protocol's rules; hosts and unicast-only routers simply relay,
    which is the transparent-unicast-cloud property of both protocols.
    """

    #: Protocol name: the channel tuple's tag and the timeline label.
    protocol: str
    #: What the protocol calls one tree, in messages ("channel").
    unit: str
    #: Per-router soft state, created when a walk first applies rules.
    state_cls: type
    #: The join message, built as ``join_cls(channel, joiner, initial=)``.
    join_cls: type

    def __init__(
        self,
        topology: Topology,
        source: NodeId,
        routing: Optional[UnicastRouting] = None,
        timing: ProtocolTiming = ROUND_TIMING,
        group: str = "G",
    ) -> None:
        topology.kind(source)  # validates node existence
        self.topology = topology
        self.routing = routing or shared_routing(topology)
        self.source = source
        self.timing = timing
        self.group = group
        self.channel = (self.protocol, source)
        self.states: Dict[NodeId, Any] = {}
        self.receivers: Set[NodeId] = set()
        #: Sorted membership, rebuilt on add/remove (run_round iterates
        #: it every round; sorting per round is pure waste).
        self._receivers_sorted: Optional[List[NodeId]] = None
        self.round_no = 0
        #: Count of rule-level events, exposed for overhead analysis.
        self.messages_processed = 0
        #: Rendered ``<S,G>`` label used by metrics and causal spans.
        self.channel_name = channel_label(source, group)
        #: Memoized :meth:`_applies_rules` verdicts.  Node kind and
        #: multicast capability are fixed before a driver exists (every
        #: ``set_multicast_capable`` call site in the experiments
        #: configures the topology first), so the verdict is static for
        #: the driver's lifetime.
        self._rules_cache: Dict[NodeId, bool] = {}
        #: Optional causal tracer + flight recorder (attach_tracer).
        #: None keeps every walk on the untraced path.
        self.causal: Optional[CausalTracer] = None
        self.flight: Optional[FlightRecorder] = None
        #: Optional tree-dynamics timeline (attach_timeline).  None (or
        #: a disabled timeline) costs one check per round — the walks
        #: themselves are never touched; the timeline diffs table state
        #: at round boundaries only.
        self.timeline: Optional[TreeTimeline] = None
        self._timeline_messages = 0
        #: The snapshot this driver last fed :attr:`timeline`'s row
        #: diff; reset by :meth:`attach_timeline`.
        self._timeline_snapshot: Optional[Tuple] = None
        #: One join message per joiner: messages are frozen and a
        #: periodic join repeats the same one every round (a traced
        #: walk stamps a copy with its span).
        self._join_messages: Dict[NodeId, Any] = {}

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _walk_join(self, origin: NodeId, message: Any,
                   span: Optional[Span] = None) -> None:
        """Walk a join from ``origin`` toward the source under the
        protocol's join rules."""

    @abc.abstractmethod
    def _tree_phase(self) -> None:
        """The source's periodic tree emission and its in-round
        cascade."""

    @abc.abstractmethod
    def _source_table(self) -> Any:
        """The source's table, as :meth:`describe` prints it."""

    @abc.abstractmethod
    def _snapshot(self, expire: bool = False) -> Tuple:
        """A hashable structural view of all channel state (what
        :meth:`converge` compares and the flight recorder and timeline
        read), in one sorted walk over the states.

        With ``expire`` the walk first ages each table it visits (the
        source's and every router's, through the tables' own
        ``expire``) and drops the states left empty: the round
        boundary.  Without it, a pure read."""

    @staticmethod
    @abc.abstractmethod
    def _timeline_rows(snapshot: Tuple) -> Tuple[List[Tuple], List[Tuple]]:
        """The ``(node, table, address)`` rows a snapshot holds, and
        the subset carrying a fusion mark."""

    @abc.abstractmethod
    def distribute_data(self) -> DataDistribution:
        """Inject one data packet at the source and record its
        journey."""

    # ------------------------------------------------------------------
    # Causal tracing (see repro.obs.causal)
    # ------------------------------------------------------------------
    def attach_tracer(self, tracer: Optional[CausalTracer],
                      flight: Optional[FlightRecorder] = None) -> None:
        """Wire a causal tracer (and optionally a flight recorder) into
        every message walk; ``None`` detaches both."""
        self.causal = tracer
        if tracer is None:
            self.flight = None
            return
        if flight is not None:
            tracer.recorder = flight
        recorder = tracer.recorder
        self.flight = recorder if isinstance(recorder, FlightRecorder) else None

    def attach_timeline(self, timeline: Optional[TreeTimeline],
                        monitor: Optional[ConvergenceMonitor] = None
                        ) -> None:
        """Wire a tree-dynamics timeline (and optionally an online
        convergence monitor) into the round loop; ``None`` detaches."""
        self.timeline = timeline
        self._timeline_messages = self.messages_processed
        self._timeline_snapshot = None
        if timeline is not None and monitor is not None:
            timeline.attach_monitor(monitor)
        if timeline is not None and timeline.monitor is not None:
            timeline.monitor.watch(self.protocol, self.channel_name)

    def _span(self, name: str, node: NodeId, target: NodeId = None,
              parent: Optional[Span] = None,
              trace_id: Optional[str] = None) -> Optional[Span]:
        """Open a span when tracing is on; a single None/flag check —
        and None back — when it is off."""
        causal = self.causal
        if causal is None or not causal.enabled:
            return None
        return causal.begin(name, node, self.now, self.channel_name,
                            trace_id=trace_id, parent=parent, target=target)

    @staticmethod
    def _stamp(message, span: Optional[Span]):
        """Copy the span identity onto a control message (no-op copy
        elided entirely when untraced)."""
        if span is None:
            return message
        return replace(message, trace_id=span.trace_id, span_id=span.span_id)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_receiver(self, receiver: NodeId) -> None:
        """Join ``receiver``: its first join is walked at once.  Whether
        the tree may intercept it is the protocol's join rule (HBH's
        first join travels to the source, Section 3.1; REUNITE's does
        not, the root of the Fig. 2 problem)."""
        self.topology.kind(receiver)
        if receiver == self.source:
            raise ChannelError(f"the source cannot join its own {self.unit}")
        if receiver in self.receivers:
            raise ChannelError(f"receiver {receiver} already joined")
        self.receivers.add(receiver)
        self._receivers_sorted = None
        self._perturb(receiver, "join")
        span = self._span(INITIAL_JOIN, receiver, target=receiver)
        join = self._stamp(self.join_cls(self.channel, receiver, initial=True),
                           span)
        self._walk_join(receiver, join, span)

    def remove_receiver(self, receiver: NodeId) -> None:
        """Leave the channel: the receiver just stops sending joins
        (Section 2.1); its state ages out over subsequent rounds."""
        try:
            self.receivers.remove(receiver)
        except KeyError:
            raise ChannelError(f"receiver {receiver} is not joined") from None
        self._receivers_sorted = None
        self._perturb(receiver, "leave")

    def _perturb(self, receiver: NodeId, detail: str) -> None:
        timeline = self.timeline
        if timeline is not None and timeline.enabled:
            timeline.perturb(self.now, self.protocol, self.channel_name,
                             node=receiver, detail=detail)

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Virtual time: the current round number."""
        return float(self.round_no)

    def run_round(self) -> Tuple:
        """One protocol period: joins, tree cascade, aging.  Returns
        the round's closing snapshot, taken by the same walk that
        ages the tables."""
        self.round_no += 1
        receivers = self._receivers_sorted
        if receivers is None:
            receivers = self._receivers_sorted = sorted(self.receivers)
        self._join_phase(receivers)
        self._tree_phase()
        snapshot = self._snapshot(expire=True)
        timeline = self.timeline
        if timeline is not None and timeline.enabled:
            self._observe_timeline(timeline, snapshot)
        if self.flight is not None:
            watermark = self.causal.next_id if self.causal is not None else 0
            self.flight.snapshot(
                self.channel_name, self.now, f"round {self.round_no}",
                snapshot, span_watermark=watermark,
            )
        return snapshot

    def _join_phase(self, receivers: List[NodeId]) -> None:
        """Every receiver's periodic join, in sorted order, reusing one
        join message per receiver (a traced round stamps a copy)."""
        causal = self.causal
        traced = causal is not None and causal.enabled
        join_cls, channel, walk = self.join_cls, self.channel, self._walk_join
        messages = self._join_messages
        span = None
        for receiver in receivers:
            message = messages.get(receiver)
            if message is None:
                message = messages[receiver] = join_cls(channel, receiver)
            if traced:
                span = self._span(JOIN, receiver, target=receiver)
                message = self._stamp(message, span)
            walk(receiver, message, span)

    def converge(self, max_rounds: int = 40, settle_rounds: int = 2) -> int:
        """Run rounds until the tree is stable; returns rounds executed.

        Stability = the structural snapshot unchanged for
        ``settle_rounds`` consecutive rounds.  Raises
        :class:`ProtocolError` if ``max_rounds`` pass without
        convergence (a rule bug, not a tuning matter).
        """
        with PROFILER.span(f"{self.protocol}.converge"):
            stable = 0
            previous = self._snapshot()
            for executed in range(1, max_rounds + 1):
                current = self.run_round()
                if current == previous:
                    stable += 1
                    if stable >= settle_rounds:
                        return executed
                else:
                    stable = 0
                    previous = current
            raise ProtocolError(
                f"{self.protocol.upper()} did not converge within "
                f"{max_rounds} rounds ({len(self.receivers)} receivers on "
                f"{self.topology.name!r})"
            )

    def _observe_timeline(self, timeline: TreeTimeline,
                          snapshot: Tuple) -> None:
        """Feed the round's table state into the tree-dynamics
        timeline: the structural row diff at the round boundary plus
        this round's control-message count into the windowed load
        series.

        The rows are a function of the snapshot, so the diff runs only
        when the snapshot differs from the one this driver last fed
        the timeline: an equal snapshot cannot produce an event."""
        now = self.now
        if snapshot != self._timeline_snapshot:
            self._timeline_snapshot = snapshot
            rows, marks = self._timeline_rows(snapshot)
            timeline.observe_tables(now, self.protocol, self.channel_name,
                                    rows, marks)
        timeline.control(now, self.protocol, self.channel_name,
                         self.messages_processed - self._timeline_messages)
        self._timeline_messages = self.messages_processed
        timeline.poll(now)

    # ------------------------------------------------------------------
    # Walk helpers
    # ------------------------------------------------------------------
    def _state_at(self, node: NodeId) -> Any:
        state = self.states.get(node)
        if state is None:
            state = self.state_cls()
            self.states[node] = state
        return state

    def _applies_rules(self, node: NodeId) -> bool:
        """Protocol rules run at multicast-capable transit routers
        only.  Memoized: called once per hop of every walk, against
        topology facts that are fixed before the driver is built."""
        cached = self._rules_cache.get(node)
        if cached is None:
            cached = (
                node != self.source
                and self.topology.kind(node) is NodeKind.ROUTER
                and self.topology.is_multicast_capable(node)
            )
            self._rules_cache[node] = cached
        return cached

    def _hops(self, origin: NodeId, destination: NodeId) -> Tuple:
        """The hop sequence ``origin -> destination`` *excluding*
        ``origin`` — what a message walk visits — off the routing
        substrate's memoized path."""
        return self.routing.path_tuple(origin, destination)[1:]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def branching_nodes(self) -> List[NodeId]:
        """Routers currently holding an MFT (the tree's branch points)."""
        return sorted(
            node for node, state in self.states.items() if state.is_branching
        )

    def describe(self) -> str:
        """Human-readable dump of the converged tree (examples/tests)."""
        lines = [
            f"{self.protocol.upper()} {self.unit} {self.channel}, "
            f"round {self.round_no}",
            f"  source {self.source}: {self._source_table()!r}",
        ]
        for node in sorted(self.states):
            state = self.states[node]
            table = state.mft if state.mft is not None else state.mct
            lines.append(f"  node {node}: {table!r}")
        return "\n".join(lines)
