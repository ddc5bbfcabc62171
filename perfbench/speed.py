"""Host-speed reference for the benchmark's timings.

A virtual core of a shared machine runs at a speed set by what other
tenants run beside it: on the 2-vCPU Xeon the bounds in BENCHMARK.json
were set on, one core's speed swings by up to half within seconds, and
the two cores swing independently.  Raw wall times of the same work
then spread wider than any useful regression bound.

So while a workload runs, a :class:`Sampler` interrupts it every
:data:`INTERVAL_S` and times a fixed computation that belongs to the
benchmark, not to the program (a Dijkstra over a fixed graph, the kind
of dict-and-heap work the program does).  An interval is scaled to the
speed at which that computation takes :data:`REFERENCE_S`, using the
samples taken inside it, and the samples' own time is left out.  A
change to the program cannot move the reference; a change in the
host's speed moves both.
"""

from __future__ import annotations

import bisect
import heapq
import random
import signal
import statistics
import time
from typing import Callable, Dict, List

#: Time of one :func:`reference` sample on an uncontended core of the
#: machine the bounds were set on; scaled times read in these seconds.
REFERENCE_S = 0.0004

#: Wall time between two samples.
INTERVAL_S = 0.05

_SOURCES = 4


def _graph(nodes: int = 60, degree: int = 4) -> Dict[int, Dict[int, int]]:
    rng = random.Random(0)
    graph: Dict[int, Dict[int, int]] = {node: {} for node in range(nodes)}
    for node in range(nodes):
        for other in rng.sample(range(nodes), degree):
            if other != node:
                weight = rng.randint(1, 9)
                graph[node][other] = graph[other][node] = weight
    return graph


_GRAPH = _graph()


def reference() -> float:
    """Run the reference computation once; its wall time in seconds."""
    started = time.perf_counter()
    for source in range(_SOURCES):
        distance = {source: 0}
        heap = [(0, source)]
        done = set()
        while heap:
            dist, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            for other, weight in _GRAPH[node].items():
                if dist + weight < distance.get(other, 1 << 62):
                    distance[other] = dist + weight
                    heapq.heappush(heap, (dist + weight, other))
    return time.perf_counter() - started


class Sampler:
    """Samples :func:`reference` every :data:`INTERVAL_S` of wall time
    (from a ``SIGALRM`` handler) while the ``with`` block runs."""

    def __init__(self) -> None:
        #: When each sample started (``time.perf_counter``), ascending,
        #: and how long it took.
        self.times: List[float] = []
        self.seconds: List[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.times.append(time.perf_counter())
        # A module global, looked up at call time: the traced run
        # replaces it with a wrapper that puts each sample in a span.
        self.seconds.append(reference())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` of wall time from ``start``, without the samples
        taken meanwhile, at the reference speed.  An interval shorter
        than the sampling interval takes the samples either side."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, start + seconds)
        inside = self.seconds[lo:hi]
        speed = inside or self.seconds[max(lo - 1, 0):lo + 1]
        if not speed:
            return seconds
        return ((seconds - sum(inside)) * REFERENCE_S
                / statistics.mean(speed))


class CellClock:
    """Records when each cell of one instance started and how long it
    took, for :meth:`Sampler.scaled`.

    It is a sink for the executor's telemetry ``bus`` (``run_sweep`` and
    ``run_churn`` publish ``cell_started`` before a cell and
    ``cell_finished`` with its wall time), and :meth:`time` times a cell
    the benchmark runs itself.
    """

    def __init__(self) -> None:
        #: Cell key -> [start, wall seconds].
        self.cells: Dict[str, List[float]] = {}
        self._started = 0.0

    def publish(self, event: dict) -> None:
        if event["type"] == "cell_started":
            self._started = time.perf_counter()
        elif event["type"] == "cell_finished":
            self.cells[event["key"]] = [self._started, event["seconds"]]

    def time(self, key: str, fn: Callable, *args):
        """Call ``fn(*args)`` as cell ``key``; return its result."""
        started = time.perf_counter()
        result = fn(*args)
        self.cells[key] = [started, time.perf_counter() - started]
        return result
