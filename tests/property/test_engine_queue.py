"""Differential suite: the engine's event queue vs a reference heap.

The engine promises its queue of ``(time, seq, handle)`` tuples is
*observationally identical* to a plain heap of handles ordered by
``(time, seq)``: every event fires at the same virtual time, in the
same order — equal times resolve FIFO — with the same lazy-cancellation
and ``ScheduleInPastError`` semantics.  The determinism of every
archived sweep rests on that equivalence, so it is pinned here against
a minimal reference implementation rather than trusted by review.

The generated programs deliberately stress the queue: equal-time
collisions, re-entrant schedules at the firing instant (delay 0),
events far beyond the rest, cancellations from inside callbacks, and
``run(until=...)`` splits that stop a drain part-way and resume it.
"""

from heapq import heappop, heappush

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ScheduleInPastError
from repro.netsim.engine import Simulator

COMMON = settings(max_examples=120, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# Reference model: the engine reduced to its semantics
# ----------------------------------------------------------------------
class _RefHandle:
    __slots__ = ("time", "seq", "callback", "args")

    def __init__(self, time, seq, callback, args):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args

    def cancel(self):
        self.callback = None
        self.args = ()

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)


class ReferenceSimulator:
    """One binary heap, FIFO ties via a sequence number, lazy
    cancellation — the event queue stripped of everything but its
    observable behaviour."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = 0
        self.events_executed = 0

    def schedule(self, delay, callback, *args):
        if delay < 0:
            raise ScheduleInPastError(f"negative delay {delay}")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time, callback, *args):
        if time < self.now:
            raise ScheduleInPastError(
                f"cannot schedule at {time}, now is {self.now}"
            )
        handle = _RefHandle(time, self._seq, callback, args)
        self._seq += 1
        heappush(self._heap, handle)
        return handle

    def run(self, until=None):
        executed = 0
        heap = self._heap
        while heap:
            head = heap[0]
            if head.callback is None:
                heappop(heap)
                continue
            if until is not None and head.time > until:
                break
            heappop(heap)
            self.now = head.time
            callback, args = head.callback, head.args
            head.cancel()  # consumed before firing, like the engine
            callback(*args)
            executed += 1
            self.events_executed += 1
        if until is not None and self.now < until:
            self.now = until
        return executed


# ----------------------------------------------------------------------
# Program generation
# ----------------------------------------------------------------------
#: Root times: a grid coarse enough to force equal-time collisions,
#: spread from near-simultaneous to hundreds of time units apart.
_TIMES = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 2.5, 63.5, 64.0, 64.5,
                     100.0, 500.0]),
    st.integers(0, 300).map(lambda n: n * 0.5),
)

#: Child delays relative to the parent's firing time: 0.0 lands at
#: the firing instant mid-drain, 70.0/200.0 far beyond it.
_CHILD_DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 10.0, 70.0, 200.0])


@st.composite
def programs(draw):
    n_roots = draw(st.integers(1, 12))
    roots = [draw(_TIMES) for _ in range(n_roots)]
    children = {}
    cancels = {}
    for idx in range(n_roots):
        if draw(st.booleans()):
            children[idx] = draw(st.lists(_CHILD_DELAYS, max_size=3))
        if draw(st.booleans()):
            cancels[idx] = draw(
                st.lists(st.integers(0, n_roots - 1), max_size=2)
            )
    split = draw(st.one_of(st.none(), _TIMES))
    return roots, children, cancels, split


def _execute(sim, program):
    """Run one generated program on ``sim``; return its firing log."""
    roots, children, cancels, split = program
    log = []
    handles = {}

    def fire(tag):
        log.append((sim.now, tag))
        if tag[0] == "root":
            idx = tag[1]
            for pos, delay in enumerate(children.get(idx, ())):
                child = ("child", idx, pos)
                handles[child] = sim.schedule(delay, fire, child)
            for target in cancels.get(idx, ()):
                handle = handles.get(("root", target))
                if handle is not None:
                    handle.cancel()

    for idx, time in enumerate(roots):
        handles[("root", idx)] = sim.schedule_at(time, fire, ("root", idx))
    executed = 0
    if split is not None:
        # Partial drain first: resuming after an until-bounded stop
        # fires events scheduled before the stop alongside those
        # scheduled after it.
        executed += sim.run(until=split)
    executed += sim.run()
    return log, executed, sim.now


# ----------------------------------------------------------------------
# The differential property
# ----------------------------------------------------------------------
class TestCalendarMatchesHeap:
    @COMMON
    @given(programs())
    def test_identical_firing_order(self, program):
        got = _execute(Simulator(), program)
        want = _execute(ReferenceSimulator(), program)
        assert got == want

    @COMMON
    @given(st.lists(_TIMES, min_size=1, max_size=30))
    def test_equal_times_fire_fifo(self, times):
        """Events at one instant fire in scheduling order, whatever
        order of times they were scheduled in."""
        simulator = Simulator()
        log = []
        for order, time in enumerate(times):
            simulator.schedule_at(time, log.append, (time, order))
        simulator.run()
        assert log == sorted(log)
        assert len(log) == len(times)


class TestScheduleInPast:
    def test_schedule_at_before_now_raises(self):
        simulator = Simulator()
        simulator.schedule_at(5.0, lambda: None)
        simulator.run()
        assert simulator.now == 5.0
        with pytest.raises(ScheduleInPastError):
            simulator.schedule_at(4.0, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(ScheduleInPastError):
            Simulator().schedule(-0.5, lambda: None)

    def test_reentrant_past_schedule_raises(self):
        """A callback scheduling behind the in-flight event's time must
        fail exactly like the reference heap did."""
        simulator = Simulator()
        failures = []

        def bad():
            try:
                simulator.schedule_at(simulator.now - 1.0, lambda: None)
            except ScheduleInPastError:
                failures.append(simulator.now)

        simulator.schedule_at(3.0, bad)
        simulator.run()
        assert failures == [3.0]
