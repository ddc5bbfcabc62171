"""Virtual-time discrete-event engine.

A :class:`Simulator` owns a timestamp-ordered event queue and executes
events in order.  Determinism rules:

- events at equal times run in scheduling (FIFO) order, via a
  monotonically increasing sequence number;
- cancelled events stay queued but are skipped (lazy deletion), so
  cancellation is O(1).

The queue is one binary heap of ``(time, seq, handle)`` tuples.  The
sequence number is unique, so every comparison is settled by the
tuple's first two items, inside the C heap code, and never reaches the
handle.  That made it about twice as fast per event as the bucketed
calendar queue it replaced, which ordered its active bucket through a
Python-level ``__lt__`` (docs/architecture.md has the measurements).
The engine's Hypothesis suite checks the firing order against a
reference heap model.

The engine knows nothing about networks; links, nodes and protocol
agents are layered on top.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import ScheduleInPastError, SimulationError
from repro.obs.profiling import PROFILER
from repro.obs.registry import MetricsRegistry


class EventHandle:
    """A scheduled event that can be cancelled before it fires."""

    __slots__ = ("time", "_seq", "_callback", "_args", "_owner")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., None], args: Tuple[Any, ...],
                 owner: "Simulator") -> None:
        self.time = time
        self._seq = seq
        self._callback: Optional[Callable[..., None]] = callback
        self._args = args
        self._owner = owner

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self._callback is not None:
            self._callback = None
            self._args = ()
            self._owner._live -= 1

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called (or the event already ran)."""
        return self._callback is None

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time}, {state})"


class Simulator:
    """The discrete-event scheduler.

    Typical use::

        sim = Simulator()
        sim.schedule(5.0, callback, arg1)
        sim.run(until=1000.0)
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._now = 0.0
        #: Min-heap of ``(time, seq, handle)``; cancelled handles stay
        #: until they reach the head.
        self._queue: List[Tuple[float, int, EventHandle]] = []
        #: Queued, non-cancelled events — maintained incrementally so
        #: :attr:`pending` is O(1) despite lazy deletion.
        self._live = 0
        #: Next sequence number.  A plain int (not itertools.count) so
        #: the link layer's batched drains can check "has anything been
        #: scheduled since" with one attribute read.
        self._seq = 0
        self._running = False
        self._stopped = False
        self.events_executed = 0
        #: Optional observability registry; when set, every run() call
        #: accumulates ``engine.events`` / ``engine.runs`` counters.
        self.metrics = metrics

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` from now."""
        if delay < 0:
            raise ScheduleInPastError(f"negative delay {delay}")
        # schedule_at's body, inlined: nearly every event is scheduled
        # here, and the saved call is about 4% of a fault-storm run.
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, self)
        self._live += 1
        heappush(self._queue, (time, seq, handle))
        return handle

    def schedule_at(self, time: float, callback: Callable[..., None],
                    *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise ScheduleInPastError(
                f"cannot schedule at {time}, now is {self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, self)
        self._live += 1
        heappush(self._queue, (time, seq, handle))
        return handle

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Execute events until the queue drains, ``until`` is passed, or
        ``max_events`` have run.  Returns the number of events executed
        by this call.  Virtual time advances to ``until`` (if given)
        even when the queue drains earlier.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        if PROFILER.enabled:
            with PROFILER.span("engine.run"):
                return self._run_loop(until, max_events)
        return self._run_loop(until, max_events)

    def _run_loop(self, until: Optional[float],
                  max_events: Optional[int]) -> int:
        self._running = True
        self._stopped = False
        executed = 0
        queue = self._queue
        try:
            while queue and not self._stopped:
                if max_events is not None and executed >= max_events:
                    break
                time, _, head = queue[0]
                callback = head._callback
                if callback is None:
                    heappop(queue)
                    continue
                if until is not None and time > until:
                    break
                heappop(queue)
                self._now = time
                # Consume before running so re-entrant cancels are
                # no-ops (the handle's owner is this simulator).
                args = head._args
                head._callback = None
                head._args = ()
                self._live -= 1
                callback(*args)
                executed += 1
                self.events_executed += 1
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        if self.metrics is not None:
            self.metrics.inc("engine.events", float(executed))
            self.metrics.inc("engine.runs")
        return executed

    def step(self) -> bool:
        """Execute exactly one pending event.  Returns False when idle."""
        return self.run(max_events=1) == 1

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight event."""
        self._stopped = True

    @property
    def pending(self) -> int:
        """Number of queued, non-cancelled events.  O(1): a live counter
        is maintained on schedule/cancel/fire, so hot loops may poll it
        freely despite lazy deletion."""
        return self._live

    @property
    def next_event_time(self) -> Optional[float]:
        """Virtual time of the earliest pending event, if any.  Purges
        cancelled heads on the way (amortised against their original
        scheduling)."""
        queue = self._queue
        while queue and queue[0][2]._callback is None:
            heappop(queue)
        return queue[0][0] if queue else None

    def __repr__(self) -> str:
        return f"Simulator(now={self._now}, pending={self.pending})"
