"""Tree-dynamics timeline: online per-channel protocol-state streams.

The paper's stability claim (§3.3, Fig. 4) is about *dynamics*: how
much of the tree moves, and for how long, after a membership change or
a fault.  The repo could only answer that post-hoc — diff two
hand-taken snapshots (:mod:`repro.metrics.stability`) or run the
oracle after the fact (:mod:`repro.verify.oracle`).  This module
watches the protocol state *while the simulation runs*:

- a :class:`TreeTimeline` receives table mutations from the same seams
  causal tracing instruments (static drivers at round boundaries, the
  event agents and fault injector in simulated time) and turns them
  into a deterministic per-protocol/per-channel event stream —
  ``branch-add``/``branch-remove``, ``entry-add``/``entry-remove``,
  ``reroute`` (an address moving between nodes in one step),
  ``entry-mark`` (fusion changes) and ``perturb``/``stabilize``
  markers.  Events live in a ring (oldest evicted first, counted in
  :attr:`TreeTimeline.dropped`) and archive to JSONL exactly like
  causal spans.
- a :class:`ConvergenceMonitor` pairs each perturbation (membership
  event, injected fault) with the sim-time at which the channel's tree
  re-stabilises: a perturbation opens a *convergence window*; every
  structural change extends it; once ``quiet`` sim-time passes with no
  change the window closes and yields one ``convergence.latency`` and
  one ``tree.churn.entries`` observation per protocol/channel in a
  :class:`~repro.obs.registry.MetricsRegistry`.  Control-plane message
  counts are bucketed into fixed sim-time windows
  (``control.load.window``), so the histogram's observation order *is*
  the load time series.

The plane is **off by default and off the hot path**: owners hold a
``TreeTimeline(enabled=False)`` (or ``None``) and guard every call
site with the same single ``enabled`` check causal tracing uses, so
benchmarked sweeps pay one boolean test per seam.

This module sits in the obs layer: it imports nothing from the rest of
:mod:`repro` except the registry, so core, netsim and the protocol
drivers can all instrument themselves without import cycles.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import (
    IO,
    Any,
    Deque,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)
from collections import deque

from repro.obs.registry import MetricsRegistry

PathOrFile = Union[str, Path, IO[str]]

# ----------------------------------------------------------------------
# Event vocabulary (tests and the timeline CLI rely on these names)
# ----------------------------------------------------------------------
PERTURB = "perturb"  # membership event or injected fault
BRANCH_ADD = "branch-add"  # a node started holding MFT state
BRANCH_REMOVE = "branch-remove"  # a node stopped holding MFT state
ENTRY_ADD = "entry-add"  # a table row appeared
ENTRY_REMOVE = "entry-remove"  # a table row aged out / was dropped
ENTRY_MARK = "entry-mark"  # fusion change: marked bit flipped
REROUTE = "reroute"  # an address moved between nodes in one step
STABILIZE = "stabilize"  # convergence window closed

#: Kinds that mutate tree structure (they feed churn windows); perturb
#: and stabilize are markers *about* the structure, not part of it.
STRUCTURAL_KINDS = frozenset({
    BRANCH_ADD, BRANCH_REMOVE, ENTRY_ADD, ENTRY_REMOVE, ENTRY_MARK, REROUTE,
})

#: Tables whose rows make a node a *branching* node.  "mft" covers the
#: static planes (HBH routers and REUNITE branch state), "src" the
#: static HBH source table, "source-mft" the event-driven source agent.
BRANCH_TABLES = frozenset({"mft", "src", "source-mft"})

#: Channel/protocol value for network-wide perturbations (faults hit
#: links and routers, not one channel).
ALL_CHANNELS = "*"


@dataclass(frozen=True, slots=True)
class TimelineEvent:
    """One timeline entry: what happened to which channel's tree, when.

    ``seq`` is the per-timeline emission index (the deterministic total
    order); ``t`` is simulated time (round number on the static planes,
    virtual seconds on the event plane).
    """

    seq: int
    t: float
    protocol: str
    channel: str
    kind: str
    node: Any = None
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible projection (one JSONL line)."""
        out: Dict[str, Any] = {
            "seq": self.seq,
            "t": self.t,
            "protocol": self.protocol,
            "channel": self.channel,
            "kind": self.kind,
        }
        if self.node is not None:
            out["node"] = _jsonable(self.node)
        if self.detail:
            out["detail"] = self.detail
        return out

    def __str__(self) -> str:
        node = "" if self.node is None else f" @{self.node}"
        detail = f" ({self.detail})" if self.detail else ""
        return (f"t={self.t:g} [{self.protocol} {self.channel}] "
                f"{self.kind}{node}{detail}")


_SCALARS = (str, int, float, bool, type(None))


def _jsonable(value: Any) -> Any:
    return value if isinstance(value, _SCALARS) else repr(value)


def event_from_dict(raw: Dict[str, Any]) -> TimelineEvent:
    """Rebuild an event from its JSONL projection (non-scalar node ids
    come back stringified, exactly like causal spans)."""
    return TimelineEvent(
        seq=raw["seq"],
        t=raw["t"],
        protocol=raw["protocol"],
        channel=raw["channel"],
        kind=raw["kind"],
        node=raw.get("node"),
        detail=raw.get("detail", ""),
    )


#: One table row: ``(node, table, address)``.  Flags (stale, marked)
#: are deliberately *not* part of row identity — a row going stale and
#: fresh again is refresh noise, not a structural change.
TableRow = Tuple[Hashable, str, Hashable]


class TreeTimeline:
    """Records tree-dynamics events while enabled.

    ``maxlen`` bounds memory like a ring buffer: the oldest events are
    evicted first and counted in :attr:`dropped` (and, when a
    ``registry`` is attached, in the ``timeline.dropped`` counter).
    Structural events are forwarded to an attached
    :class:`ConvergenceMonitor`, which is how perturbations get paired
    with re-stabilisation online.
    """

    def __init__(self, enabled: bool = False,
                 maxlen: Optional[int] = 65536,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.enabled = enabled
        self.maxlen = maxlen
        self.registry = registry
        self.monitor: Optional["ConvergenceMonitor"] = None
        self.dropped = 0
        self._events: Deque[TimelineEvent] = deque()
        self._next_seq = 1
        #: Previous table rows per (protocol, channel), diffed by
        #: :meth:`observe_tables`.
        self._rows: Dict[Tuple[str, str], frozenset] = {}
        self._marks: Dict[Tuple[str, str], frozenset] = {}

    def attach_monitor(self, monitor: "ConvergenceMonitor") -> None:
        """Wire a convergence monitor (both directions: the monitor
        records ``stabilize`` events back into this timeline, which it
        holds weakly, so the pair forms no reference cycle)."""
        self.monitor = monitor
        monitor.timeline = self

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, t: float, protocol: str, channel: str, kind: str,
               node: Any = None, detail: str = "") -> TimelineEvent:
        """Append one event (and notify the monitor for structural
        kinds).  Callers guard with :attr:`enabled` themselves — this
        is the slow path."""
        event = TimelineEvent(seq=self._next_seq, t=t, protocol=protocol,
                              channel=channel, kind=kind, node=node,
                              detail=detail)
        self._next_seq += 1
        self._events.append(event)
        if self.maxlen is not None and len(self._events) > self.maxlen:
            self._events.popleft()
            self.dropped += 1
            if self.registry is not None:
                self.registry.inc("timeline.dropped")
        if kind in STRUCTURAL_KINDS and self.monitor is not None:
            self.monitor.tree_changed(protocol, channel, t, kind)
        return event

    def perturb(self, t: float, protocol: Optional[str] = None,
                channel: Optional[str] = None, node: Any = None,
                detail: str = "") -> None:
        """Record a perturbation (membership event / injected fault).

        ``protocol``/``channel`` of ``None`` means network-wide — every
        channel the monitor watches gets its convergence window opened
        (faults hit links, not channels).
        """
        self.record(t, protocol if protocol is not None else ALL_CHANNELS,
                    channel if channel is not None else ALL_CHANNELS,
                    PERTURB, node=node, detail=detail)
        if self.monitor is not None:
            self.monitor.perturb(protocol, channel, t, detail=detail)

    def observe_tables(self, t: float, protocol: str, channel: str,
                       rows: Iterable[TableRow],
                       marked: Iterable[TableRow] = ()) -> int:
        """Diff the channel's current table rows against the last
        observation and emit the structural events in between.

        ``rows`` are ``(node, table, address)`` triples; ``marked`` the
        subset currently carrying the fusion mark.  Emission order is
        deterministic (reroutes, removes, branch-removes, adds,
        branch-adds, mark flips — each sorted by string form), so the
        archive is byte-identical across runs.  Returns the number of
        events emitted.
        """
        key = (protocol, channel)
        current = frozenset(rows)
        previous = self._rows.get(key, frozenset())
        current_marks = frozenset(marked)
        previous_marks = self._marks.get(key, frozenset())
        self._rows[key] = current
        self._marks[key] = current_marks
        if current == previous and current_marks == previous_marks:
            return 0

        added = current - previous
        removed = previous - current
        emitted = 0

        # Reroutes: the same forwarded address leaving one node's MFT
        # and appearing in another's in a single observation step is the
        # paper's Fig. 2/4 route change — pair them up instead of
        # emitting a disconnected remove+add.
        removed_by_addr: Dict[str, List[TableRow]] = {}
        added_by_addr: Dict[str, List[TableRow]] = {}
        for row in removed:
            if row[1] in BRANCH_TABLES:
                removed_by_addr.setdefault(str(row[2]), []).append(row)
        for row in added:
            if row[1] in BRANCH_TABLES:
                added_by_addr.setdefault(str(row[2]), []).append(row)
        rerouted: set = set()
        for addr_text in sorted(set(removed_by_addr) & set(added_by_addr)):
            old_rows = sorted(removed_by_addr[addr_text], key=_row_key)
            new_rows = sorted(added_by_addr[addr_text], key=_row_key)
            for old_row, new_row in zip(old_rows, new_rows):
                rerouted.add(old_row)
                rerouted.add(new_row)
                self.record(t, protocol, channel, REROUTE, node=new_row[0],
                            detail=f"{addr_text}: {old_row[0]} -> {new_row[0]}")
                emitted += 1

        for row in sorted(removed - rerouted, key=_row_key):
            self.record(t, protocol, channel, ENTRY_REMOVE, node=row[0],
                        detail=f"{row[1]} {row[2]}")
            emitted += 1
        previous_branches = _branch_nodes(previous)
        current_branches = _branch_nodes(current)
        for node in sorted(previous_branches - current_branches, key=str):
            self.record(t, protocol, channel, BRANCH_REMOVE, node=node)
            emitted += 1
        for row in sorted(added - rerouted, key=_row_key):
            self.record(t, protocol, channel, ENTRY_ADD, node=row[0],
                        detail=f"{row[1]} {row[2]}")
            emitted += 1
        for node in sorted(current_branches - previous_branches, key=str):
            self.record(t, protocol, channel, BRANCH_ADD, node=node)
            emitted += 1

        # Fusion changes: mark flips on rows that exist on both sides
        # (rows that appeared/vanished were already reported above).
        for row in sorted((current_marks - previous_marks) & current,
                          key=_row_key):
            self.record(t, protocol, channel, ENTRY_MARK, node=row[0],
                        detail=f"{row[1]} {row[2]} marked")
            emitted += 1
        for row in sorted((previous_marks - current_marks) & current,
                          key=_row_key):
            self.record(t, protocol, channel, ENTRY_MARK, node=row[0],
                        detail=f"{row[1]} {row[2]} unmarked")
            emitted += 1
        return emitted

    def control(self, t: float, protocol: str, channel: str,
                count: int = 1) -> None:
        """Feed ``count`` control messages into the monitor's windowed
        load series (no timeline event — rule processing would flood
        the ring)."""
        if count and self.monitor is not None:
            self.monitor.control(protocol, channel, t, count)

    def poll(self, now: float) -> List[Dict[str, Any]]:
        """Give the monitor a chance to close quiet windows; returns
        the windows closed (see :meth:`ConvergenceMonitor.poll`)."""
        if self.monitor is None:
            return []
        return self.monitor.poll(now)

    def forget(self, protocol: str, channel: str) -> None:
        """Drop the diff baseline for a channel (a crashed-and-wiped
        plane restarts its observation from empty tables)."""
        self._rows.pop((protocol, channel), None)
        self._marks.pop((protocol, channel), None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def events(self) -> List[TimelineEvent]:
        """All retained events, in emission order."""
        return list(self._events)

    def per_channel(self) -> Dict[Tuple[str, str], List[TimelineEvent]]:
        """Retained events grouped by (protocol, channel)."""
        grouped: Dict[Tuple[str, str], List[TimelineEvent]] = {}
        for event in self._events:
            grouped.setdefault((event.protocol, event.channel),
                               []).append(event)
        return grouped

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        """Drop every retained event (seq keeps increasing; ``dropped``
        counts ring evictions, not clears)."""
        self._events.clear()

    # ------------------------------------------------------------------
    # Archival
    # ------------------------------------------------------------------
    def event_dicts(self) -> List[Dict[str, Any]]:
        """JSON-compatible projections of every retained event (how
        worker processes hand timelines back to the sweep executor)."""
        return [event.to_dict() for event in self._events]

    def to_jsonl(self, target: PathOrFile) -> int:
        """Write the retained events as JSON lines; returns the count."""
        return write_events_jsonl(self.event_dicts(), target)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (f"TreeTimeline({state}, events={len(self._events)}, "
                f"dropped={self.dropped})")


def _row_key(row: TableRow) -> Tuple[str, str, str]:
    return (str(row[0]), str(row[1]), str(row[2]))


def _branch_nodes(rows: frozenset) -> set:
    return {row[0] for row in rows if row[1] in BRANCH_TABLES}


def write_events_jsonl(events: Iterable[Dict[str, Any]],
                       target: PathOrFile) -> int:
    """Write event dicts as sorted-key JSON lines; returns the count.

    The sweep executor merges worker timelines in run-index order and
    archives through this single code path, which is what makes the
    file byte-identical across ``--jobs`` and replays.
    """
    lines = [json.dumps(event, sort_keys=True) for event in events]
    text = "\n".join(lines) + ("\n" if lines else "")
    if hasattr(target, "write"):
        target.write(text)  # type: ignore[union-attr]
    else:
        Path(target).write_text(text)  # type: ignore[arg-type]
    return len(lines)


def read_events(source: PathOrFile) -> List[TimelineEvent]:
    """Load events back from a JSONL archive (extra annotation keys
    such as the sweep coordinates are ignored)."""
    if hasattr(source, "read"):
        text = source.read()  # type: ignore[union-attr]
    else:
        text = Path(source).read_text()  # type: ignore[arg-type]
    events = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            events.append(event_from_dict(json.loads(line)))
    return events


# ----------------------------------------------------------------------
# Online convergence monitoring
# ----------------------------------------------------------------------
class _Watch:
    """Per-(protocol, channel) monitor state."""

    __slots__ = ("window_open", "opened_t", "last_perturb_t",
                 "last_change_t", "churn", "perturbs", "closed", "pending",
                 "load_index", "load_count")

    def __init__(self) -> None:
        self.window_open = False
        self.opened_t = 0.0
        self.last_perturb_t = 0.0
        self.last_change_t: Optional[float] = None
        self.churn = 0
        self.perturbs = 0
        self.closed: List[Dict[str, Any]] = []
        self.pending = 0
        self.load_index: Optional[int] = None
        self.load_count = 0


class ConvergenceMonitor:
    """Pairs perturbations with online re-stabilisation times.

    A perturbation opens (or extends) the channel's *convergence
    window*; every structural tree change stamps ``last_change_t`` and
    counts churn.  :meth:`poll` closes windows that have been quiet for
    ``quiet`` sim-time, observing

    - ``convergence.latency`` — last structural change minus last
      perturbation (0 when the perturbation changed nothing), and
    - ``tree.churn.entries`` — structural events inside the window

    per protocol/channel into ``registry``.  Control messages are
    bucketed into fixed ``window``-wide sim-time buckets and flushed
    into the ``control.load.window`` histogram in bucket order, so its
    exact-observation list is the load time series.

    ``quiet`` must exceed the protocol's largest legitimate repair gap
    (soft-state aging means repairs can pause for up to ``t2`` between
    steps) or a window will close early and under-report latency.
    """

    def __init__(self, registry: MetricsRegistry, quiet: float = 5.0,
                 window: Optional[float] = None) -> None:
        if quiet <= 0:
            raise ValueError(f"quiet time must be > 0, got {quiet}")
        self.registry = registry
        self.quiet = quiet
        self.window = window if window is not None else quiet
        self._timeline: Optional["weakref.ref[TreeTimeline]"] = None
        self._watches: Dict[Tuple[str, str], _Watch] = {}

    @property
    def timeline(self) -> Optional[TreeTimeline]:
        """The timeline ``stabilize`` events go to, or None.  Held
        weakly: the timeline holds this monitor, and its owner (a
        driver, a network, a sweep cell) keeps it alive."""
        ref = self._timeline
        return None if ref is None else ref()

    @timeline.setter
    def timeline(self, timeline: Optional[TreeTimeline]) -> None:
        self._timeline = None if timeline is None else weakref.ref(timeline)

    # ------------------------------------------------------------------
    # Event intake (called by TreeTimeline)
    # ------------------------------------------------------------------
    def watch(self, protocol: str, channel: str) -> None:
        """Start monitoring a channel (idempotent; channels are also
        auto-watched on their first perturbation or change)."""
        self._watch(protocol, channel)

    def _watch(self, protocol: str, channel: str) -> _Watch:
        key = (protocol, channel)
        watch = self._watches.get(key)
        if watch is None:
            watch = self._watches[key] = _Watch()
        return watch

    def perturb(self, protocol: Optional[str], channel: Optional[str],
                t: float, detail: str = "") -> None:
        """A perturbation hit ``channel`` (or every watched channel,
        when ``protocol``/``channel`` is None — network faults)."""
        if protocol is None or channel is None:
            targets = list(self._watches.values())
        else:
            targets = [self._watch(protocol, channel)]
        for watch in targets:
            if not watch.window_open:
                watch.window_open = True
                watch.opened_t = t
                watch.last_change_t = None
                watch.churn = 0
                watch.perturbs = 0
            watch.last_perturb_t = t
            watch.perturbs += 1

    def tree_changed(self, protocol: str, channel: str, t: float,
                     kind: str) -> None:
        """A structural tree event occurred.  Outside a window this is
        steady-state refresh noise and only auto-watches the channel."""
        watch = self._watch(protocol, channel)
        if watch.window_open:
            watch.last_change_t = t
            watch.churn += 1

    def control(self, protocol: str, channel: str, t: float,
                count: int = 1) -> None:
        """Bucket control-message load into fixed sim-time windows."""
        watch = self._watch(protocol, channel)
        index = int(t // self.window)
        if watch.load_index is None:
            watch.load_index = index
        elif index != watch.load_index:
            self._flush_load(protocol, channel, watch)
            watch.load_index = index
        watch.load_count += count

    def _flush_load(self, protocol: str, channel: str,
                    watch: _Watch) -> None:
        if watch.load_index is not None and watch.load_count:
            self.registry.observe("control.load.window", watch.load_count,
                                  protocol=protocol, channel=channel)
        watch.load_count = 0

    # ------------------------------------------------------------------
    # Window closing
    # ------------------------------------------------------------------
    def poll(self, now: float) -> List[Dict[str, Any]]:
        """Close every window that has been quiet for ``quiet`` sim
        time; returns the closed-window summaries."""
        closed = []
        for (protocol, channel), watch in self._watches.items():
            if not watch.window_open:
                continue
            reference = watch.last_perturb_t
            if watch.last_change_t is not None:
                reference = max(reference, watch.last_change_t)
            if now - reference >= self.quiet:
                closed.append(self._close(protocol, channel, watch))
        return closed

    def _close(self, protocol: str, channel: str,
               watch: _Watch) -> Dict[str, Any]:
        if watch.last_change_t is None or \
                watch.last_change_t <= watch.last_perturb_t:
            latency = 0.0
            stabilized_t = watch.last_perturb_t
        else:
            latency = watch.last_change_t - watch.last_perturb_t
            stabilized_t = watch.last_change_t
        summary = {
            "protocol": protocol,
            "channel": channel,
            "opened_t": watch.opened_t,
            "t": stabilized_t,
            "latency": latency,
            "churn": watch.churn,
            "perturbs": watch.perturbs,
        }
        watch.window_open = False
        watch.closed.append(summary)
        self.registry.observe("convergence.latency", latency,
                              protocol=protocol, channel=channel)
        self.registry.observe("tree.churn.entries", watch.churn,
                              protocol=protocol, channel=channel)
        self.registry.inc("convergence.windows", protocol=protocol,
                          channel=channel)
        timeline = self.timeline
        if timeline is not None and timeline.enabled:
            timeline.record(
                stabilized_t, protocol, channel, STABILIZE,
                detail=f"latency={latency:g} churn={watch.churn}")
        return summary

    @property
    def open_windows(self) -> int:
        """How many watched channels are mid-convergence right now."""
        return sum(1 for watch in self._watches.values()
                   if watch.window_open)

    def finalize(self, now: float) -> Dict[str, Any]:
        """End of run: close quiet windows, flush load buckets, count
        still-open windows as unconverged (``convergence.pending``).
        Returns :meth:`summary`."""
        self.poll(now)
        for (protocol, channel), watch in self._watches.items():
            self._flush_load(protocol, channel, watch)
            if watch.window_open:
                watch.window_open = False
                watch.pending += 1
                self.registry.inc("convergence.pending", protocol=protocol,
                                  channel=channel)
        return self.summary()

    def summary(self) -> Dict[str, Any]:
        """Per-channel digest: closed windows, latencies, pending."""
        out: Dict[str, Any] = {}
        for (protocol, channel) in sorted(self._watches, key=str):
            watch = self._watches[(protocol, channel)]
            out[f"{protocol} {channel}"] = {
                "protocol": protocol,
                "channel": channel,
                "windows": list(watch.closed),
                "latencies": [w["latency"] for w in watch.closed],
                "churn": [w["churn"] for w in watch.closed],
                "pending": watch.pending + (1 if watch.window_open else 0),
            }
        return out

    def __repr__(self) -> str:
        open_windows = sum(1 for w in self._watches.values()
                           if w.window_open)
        return (f"ConvergenceMonitor(watched={len(self._watches)}, "
                f"open={open_windows}, quiet={self.quiet:g})")
