"""The sweep executor: shard cells, cache, journal, retry, merge in order.

:class:`SweepExecutor` takes a list of :class:`CellTask` (one per
Monte-Carlo cell) and returns their payloads **in task order**, no
matter which backend ran them or how they interleaved — the caller's
merge loop is therefore identical for serial and parallel execution,
which is what makes ``--jobs 1`` and ``--jobs 8`` byte-identical.

Two backends:

- ``serial`` — run every pending cell in this process, in task order.
- ``process`` — fan pending cells out to a
  :class:`concurrent.futures.ProcessPoolExecutor`; a broken pool
  (worker OOM-killed, segfault) is recreated and the unfinished cells
  resubmitted.

Before anything executes, each task is resolved against the resume
journal (cells completed by a killed previous invocation) and then the
content-addressed :class:`~repro.exec.cache.RunCache`.  Every freshly
computed payload is journaled and cached as it completes, so progress
is never lost to a crash.

Failures are retried up to ``retries`` times (``KeyboardInterrupt`` and
``SystemExit`` excepted — a Ctrl-C must kill the sweep, not retry it).
A :class:`~repro.errors.ReproError` is not retried either: the program
raises it about its own inputs, so a seeded cell would raise it again.
Exhaustion, or such an error, surfaces a structured :class:`ExecError`
naming the exact cell so the failure reproduces with a single serial
command.

A :class:`~repro.obs.bus.TelemetryBus` (optional) receives live
per-cell events — workers stream ``cell_started``/``cell_finished``
over a manager queue, the serial backend publishes the same events
inline, and cache/journal hits and retries are published by the parent
— so ``--jobs 1`` and ``--jobs N`` sweeps are observably identical.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.exec.cache import RunCache
from repro.exec.checkpoint import CheckpointJournal
from repro.obs import bus as bus_mod
from repro.obs.registry import MetricsRegistry

BACKENDS = ("serial", "process")


class ExecError(ReproError):
    """A cell failed every attempt; carries the exact repro coordinates."""

    def __init__(self, message: str, key: str = "", describe: str = "",
                 attempts: int = 0) -> None:
        super().__init__(message)
        self.key = key
        #: Human-readable cell coordinates, e.g.
        #: ``config=fig7a n=20 run=3 seed=123456``.
        self.describe = describe
        self.attempts = attempts


@dataclass(frozen=True)
class CellTask:
    """One schedulable unit: a picklable callable plus its identity.

    ``fn(*args)`` must be picklable (a module-level function with
    picklable arguments) for the process backend.  ``in_process=True``
    forces the cell to run in the *parent* process via ``local_fn``
    (falling back to ``fn``) — the escape hatch for cells that close
    over unpicklable state, e.g. the traced exemplar run of each group
    size, whose tracer cannot cross a process boundary.  In-process
    cells skip cache *reads* (their side effects — spans — must happen)
    but still journal and cache their payloads.
    """

    key: str
    fn: Callable[..., dict]
    args: Tuple = ()
    #: Repro coordinates for error messages and progress lines.
    describe: str = ""
    cacheable: bool = True
    in_process: bool = False
    local_fn: Optional[Callable[[], dict]] = None

    def run_local(self) -> dict:
        if self.local_fn is not None:
            return self.local_fn()
        return self.fn(*self.args)


@dataclass
class ExecStats:
    """What one :meth:`SweepExecutor.map_cells` call actually did."""

    total: int = 0
    executed: int = 0
    journal_hits: int = 0
    cache_hits: int = 0
    retries: int = 0
    backend: str = "serial"
    jobs: int = 1
    seconds: float = 0.0
    executed_keys: List[str] = field(default_factory=list)
    #: Executed cells per worker, keyed by a stable label (``w0``,
    #: ``w1``, ...) assigned in first-completion order — serial runs
    #: put everything on ``w0``.
    per_worker: Dict[str, int] = field(default_factory=dict)

    @property
    def hit_ratio(self) -> float:
        """Fraction of cells served without executing (cache + journal)."""
        if not self.total:
            return 0.0
        return (self.cache_hits + self.journal_hits) / self.total

    def describe(self) -> str:
        workers = " ".join(
            f"{label}={count}"
            for label, count in sorted(self.per_worker.items())
        )
        return (
            f"{self.backend} backend, {self.jobs} worker(s): "
            f"{self.executed} executed, {self.cache_hits} cache hits, "
            f"{self.journal_hits} resumed, {self.retries} retries; "
            f"cache-hit ratio {self.hit_ratio:.0%}; "
            f"cells/worker [{workers or '-'}]"
        )


#: ``progress(task, done, total)`` after every completed cell.
ExecProgress = Callable[[CellTask, int, int], None]


def invoke_cell(fn, args, key: str, describe: str, queue=None):
    """Worker-side cell wrapper: stream telemetry, tag the worker pid.

    Runs in the worker process.  When the sweep has a telemetry bus,
    ``queue`` is a manager queue back to the parent — ``cell_started``
    goes out before the cell runs (so the live view sees in-flight
    work, not just completions) and ``cell_finished`` after, carrying
    the wall clock and the cell's metrics snapshot for the merged
    in-flight registry.  Returns ``(pid, payload)`` so the parent can
    attribute the cell to a worker even without a bus.
    """
    pid = os.getpid()
    if queue is not None:
        try:
            queue.put(bus_mod.cell_started(key, describe, pid=pid))
        except (EOFError, OSError):  # manager gone; run silently
            queue = None
    started = time.perf_counter()
    payload = fn(*args)
    if queue is not None:
        metrics = payload.get("metrics") if isinstance(payload, dict) else None
        try:
            queue.put(bus_mod.cell_finished(
                key, describe, seconds=time.perf_counter() - started,
                metrics=metrics, pid=pid,
            ))
        except (EOFError, OSError):
            pass
    return pid, payload


class SweepExecutor:
    """Execute cell tasks across a backend with cache + checkpointing."""

    def __init__(
        self,
        jobs: int = 1,
        backend: Optional[str] = None,
        cache: Optional[RunCache] = None,
        journal: Optional[CheckpointJournal] = None,
        resume: bool = False,
        retries: int = 2,
        metrics: Optional[MetricsRegistry] = None,
        progress: Optional[ExecProgress] = None,
        validate: Optional[Callable[[dict], bool]] = None,
        bus: Optional[bus_mod.TelemetryBus] = None,
    ) -> None:
        if jobs < 1:
            raise ExecError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.backend = backend or ("process" if jobs > 1 else "serial")
        if self.backend not in BACKENDS:
            raise ExecError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        self.cache = cache
        self.journal = journal
        self.resume = resume
        self.retries = retries
        self.metrics = metrics
        self.progress = progress
        self.validate = validate
        self.bus = bus
        self.stats = ExecStats()
        self._worker_labels: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def map_cells(self, tasks: List[CellTask]) -> List[dict]:
        """Run every task and return payloads in **task order**."""
        started = time.monotonic()
        self.stats = ExecStats(total=len(tasks), backend=self.backend,
                               jobs=self.jobs)
        self._worker_labels = {}
        if self.metrics is not None:
            self.metrics.set_gauge("exec.workers", self.jobs)
        self._publish({"type": "sweep_started", "total": len(tasks)})
        results: List[Optional[dict]] = [None] * len(tasks)
        resumed = self.journal.load() if (self.journal and self.resume) else {}
        if self.journal is not None:
            self.journal.start(fresh=not self.resume)
        try:
            pending = self._resolve(tasks, resumed, results)
            done = len(tasks) - len(pending)
            if pending:
                local = [(i, t) for i, t in pending if t.in_process
                         or self.backend == "serial"]
                remote = [(i, t) for i, t in pending if not (t.in_process
                          or self.backend == "serial")]
                done = self._run_serial(local, results, done, len(tasks))
                self._run_process(remote, results, done, len(tasks))
        finally:
            if self.journal is not None:
                self.journal.close()
            self.stats.seconds = time.monotonic() - started
            self._publish({"type": "sweep_finished", "total": len(tasks)})
        assert all(payload is not None for payload in results)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _publish(self, event: bus_mod.Event) -> None:
        if self.bus is not None:
            self.bus.publish(event)

    def _worker_label(self, pid: int) -> str:
        """Stable per-sweep worker label (w0, w1, ...) for a pid."""
        label = self._worker_labels.get(pid)
        if label is None:
            label = f"w{len(self._worker_labels)}"
            self._worker_labels[pid] = label
        return label

    # ------------------------------------------------------------------
    # Resolution against journal + cache
    # ------------------------------------------------------------------
    def _usable(self, payload: Optional[dict]) -> bool:
        if not isinstance(payload, dict):
            return False
        return self.validate(payload) if self.validate else True

    def _resolve(self, tasks: List[CellTask], resumed: Dict[str, dict],
                 results: List[Optional[dict]]
                 ) -> List[Tuple[int, CellTask]]:
        """Fill journal/cache hits into ``results``; return pending."""
        pending: List[Tuple[int, CellTask]] = []
        served = 0
        for index, task in enumerate(tasks):
            payload = resumed.get(task.key)
            if self._usable(payload):
                # Already in the journal from the interrupted run — do
                # not re-append.
                assert payload is not None
                results[index] = payload
                self.stats.journal_hits += 1
                self._publish_cached(task, payload, "journal")
                served += 1
                self._notify(task, served, len(tasks))
                continue
            if (task.cacheable and not task.in_process
                    and self.cache is not None):
                payload = self.cache.get(task.key)
                if self._usable(payload):
                    assert payload is not None
                    results[index] = payload
                    self.stats.cache_hits += 1
                    if self.metrics is not None:
                        self.metrics.inc("exec.cache.hit")
                    if self.journal is not None:
                        self.journal.append(task.key, payload)
                    self._publish_cached(task, payload, "cache")
                    served += 1
                    self._notify(task, served, len(tasks))
                    continue
            if (self.metrics is not None and task.cacheable
                    and self.cache is not None):
                self.metrics.inc("exec.cache.miss")
            pending.append((index, task))
        return pending

    def _publish_cached(self, task: CellTask, payload: dict,
                        source: str) -> None:
        if self.bus is None:
            return
        self._publish({
            "type": "cell_cached", "key": task.key,
            "describe": task.describe, "source": source,
            "metrics": payload.get("metrics"),
        })

    # ------------------------------------------------------------------
    # Completion bookkeeping (shared by both backends)
    # ------------------------------------------------------------------
    def _complete(self, index: int, task: CellTask, payload: dict,
                  results: List[Optional[dict]], done: int,
                  total: int, pid: Optional[int] = None) -> int:
        label = self._worker_label(pid if pid is not None else os.getpid())
        self.stats.per_worker[label] = (
            self.stats.per_worker.get(label, 0) + 1
        )
        results[index] = payload
        self.stats.executed += 1
        self.stats.executed_keys.append(task.key)
        if self.journal is not None:
            self.journal.append(task.key, payload)
        if self.cache is not None and task.cacheable:
            self.cache.put(task.key, payload)
        if self.metrics is not None:
            seconds = payload.get("seconds")
            if isinstance(seconds, (int, float)):
                self.metrics.observe("exec.run.seconds", seconds)
        done += 1
        self._notify(task, done, total)
        return done

    def _notify(self, task: CellTask, done: int, total: int) -> None:
        if self.progress is not None:
            self.progress(task, done, total)

    def _retry_or_raise(self, task: CellTask, attempts: int,
                        exc: Exception) -> None:
        """Count one failure; raise :class:`ExecError` past the budget,
        or at once for a deterministic :class:`ReproError`."""
        if attempts > self.retries or isinstance(exc, ReproError):
            raise ExecError(
                f"cell failed after {attempts} attempt(s): {task.describe or task.key}"
                f" ({type(exc).__name__}: {exc})",
                key=task.key, describe=task.describe, attempts=attempts,
            ) from exc
        self.stats.retries += 1
        if self.metrics is not None:
            self.metrics.inc("exec.retries")
        self._publish({
            "type": "cell_retried", "key": task.key,
            "describe": task.describe, "attempts": attempts,
        })

    # ------------------------------------------------------------------
    # Backends
    # ------------------------------------------------------------------
    def _run_serial(self, pending: List[Tuple[int, CellTask]],
                    results: List[Optional[dict]], done: int,
                    total: int) -> int:
        pid = os.getpid()
        for index, task in pending:
            attempts = 0
            while True:
                attempts += 1
                self._publish(bus_mod.cell_started(task.key, task.describe,
                                                   pid=pid))
                started = time.perf_counter()
                try:
                    payload = task.run_local()
                    break
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:
                    self._retry_or_raise(task, attempts, exc)
            if self.bus is not None:
                self._publish(bus_mod.cell_finished(
                    task.key, task.describe,
                    seconds=time.perf_counter() - started,
                    metrics=(payload.get("metrics")
                             if isinstance(payload, dict) else None),
                    pid=pid,
                ))
            done = self._complete(index, task, payload, results, done,
                                  total, pid=pid)
        return done

    def _run_process(self, pending: List[Tuple[int, CellTask]],
                     results: List[Optional[dict]], done: int,
                     total: int) -> int:
        if not pending:
            return done
        todo = list(pending)
        attempts: Dict[int, int] = {index: 0 for index, _ in pending}
        # Worker-side telemetry: a manager queue the cells stream
        # started/finished events over, drained into the bus by a
        # parent-side listener thread.  Only paid for when a bus is
        # attached — the plain path submits with queue=None.
        manager = queue = listener = None
        if self.bus is not None:
            import multiprocessing

            manager = multiprocessing.Manager()
            queue = manager.Queue()
            listener = bus_mod.QueueListener(queue, self.bus).start()
        try:
            while todo:
                pool = ProcessPoolExecutor(max_workers=self.jobs)
                try:
                    futures = {
                        pool.submit(invoke_cell, task.fn, task.args,
                                    task.key, task.describe, queue):
                        (index, task)
                        for index, task in todo
                    }
                    todo = []
                    outstanding = set(futures)
                    broken = False
                    while outstanding:
                        finished, outstanding = wait(
                            outstanding, return_when=FIRST_COMPLETED
                        )
                        for future in finished:
                            index, task = futures[future]
                            try:
                                pid, payload = future.result()
                            except (KeyboardInterrupt, SystemExit):
                                raise
                            except BrokenProcessPool as exc:
                                # The pool died under this cell (worker
                                # killed).  Charge one attempt and rebuild
                                # the pool for whatever is left.
                                broken = True
                                attempts[index] += 1
                                self._retry_or_raise(task, attempts[index],
                                                     exc)
                                todo.append((index, task))
                                continue
                            except Exception as exc:
                                attempts[index] += 1
                                self._retry_or_raise(task, attempts[index],
                                                     exc)
                                todo.append((index, task))
                                continue
                            done = self._complete(index, task, payload,
                                                  results, done, total,
                                                  pid=pid)
                        if broken:
                            # Remaining futures of a broken pool never
                            # complete normally; drain them as retries too.
                            for future in outstanding:
                                index, task = futures[future]
                                attempts[index] += 1
                                self._retry_or_raise(
                                    task, attempts[index],
                                    BrokenProcessPool("process pool broke"),
                                )
                                todo.append((index, task))
                            outstanding = set()
                finally:
                    pool.shutdown(wait=False, cancel_futures=True)
        finally:
            if listener is not None:
                listener.stop()
            if manager is not None:
                manager.shutdown()
        return done
