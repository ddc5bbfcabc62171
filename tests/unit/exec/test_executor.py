"""Unit tests for the sweep executor and the worker payload contract."""

import pytest

from repro.exec.cache import RunCache
from repro.exec.checkpoint import CheckpointJournal
from repro.exec.executor import CellTask, ExecError, SweepExecutor
from repro.exec.worker import execute_cell, payload_is_valid
from repro.experiments.config import SweepConfig
from repro.obs.profiling import PROFILER
from repro.obs.registry import MetricsRegistry

SMALL = SweepConfig(name="small", topology="isp", group_sizes=(2,),
                    runs=2, seed=7)


def _value_cell(value):
    """Module-level (picklable) trivial cell."""
    return {"value": value, "seconds": 0.0}


def make_tasks(count):
    return [
        CellTask(key=f"cell-{i}", fn=_value_cell, args=(i,),
                 describe=f"cell {i}")
        for i in range(count)
    ]


class TestSerialBackend:
    def test_results_in_task_order(self):
        results = SweepExecutor(jobs=1).map_cells(make_tasks(5))
        assert [payload["value"] for payload in results] == [0, 1, 2, 3, 4]

    def test_retries_until_success(self):
        failures = {"left": 2}

        def flaky():
            if failures["left"] > 0:
                failures["left"] -= 1
                raise RuntimeError("transient")
            return {"value": 42}

        metrics = MetricsRegistry()
        executor = SweepExecutor(jobs=1, retries=2, metrics=metrics)
        task = CellTask(key="flaky", fn=flaky, describe="flaky cell")
        assert executor.map_cells([task]) == [{"value": 42}]
        assert executor.stats.retries == 2
        assert metrics.value("exec.retries") == 2

    def test_exhausted_retries_raise_structured_error(self):
        def doomed():
            raise RuntimeError("permanent")

        task = CellTask(key="doomed", fn=doomed,
                        describe="config=small n=2 run=1 seed=99")
        with pytest.raises(ExecError) as info:
            SweepExecutor(jobs=1, retries=1).map_cells([task])
        assert info.value.attempts == 2
        assert "n=2 run=1 seed=99" in str(info.value)
        assert info.value.describe == "config=small n=2 run=1 seed=99"

    def test_repro_error_fails_at_first_attempt(self):
        """The program's own errors are deterministic for a seeded
        cell, so retrying one only repeats it."""
        from repro.errors import ExperimentError
        from repro.obs.bus import TelemetryBus

        calls = {"n": 0}

        def misconfigured():
            calls["n"] += 1
            raise ExperimentError("unknown protocol 'bogus'")

        metrics = MetricsRegistry()
        bus = TelemetryBus()
        executor = SweepExecutor(jobs=1, retries=5, metrics=metrics,
                                 bus=bus)
        with pytest.raises(ExecError) as info:
            executor.map_cells([CellTask(key="bad", fn=misconfigured)])
        assert info.value.attempts == 1
        assert "ExperimentError" in str(info.value)
        assert calls["n"] == 1
        assert executor.stats.retries == 0
        assert "exec.retries" not in metrics.names()
        assert bus.retries == 0

    def test_keyboard_interrupt_is_not_retried(self):
        calls = {"n": 0}

        def interrupted():
            calls["n"] += 1
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            SweepExecutor(jobs=1, retries=5).map_cells(
                [CellTask(key="int", fn=interrupted)]
            )
        assert calls["n"] == 1

    def test_progress_counts_every_cell(self):
        seen = []
        executor = SweepExecutor(
            jobs=1, progress=lambda task, done, total: seen.append(
                (task.key, done, total))
        )
        executor.map_cells(make_tasks(3))
        assert seen == [("cell-0", 1, 3), ("cell-1", 2, 3),
                        ("cell-2", 3, 3)]

    def test_rejects_bad_configuration(self):
        with pytest.raises(ExecError):
            SweepExecutor(jobs=0)
        with pytest.raises(ExecError):
            SweepExecutor(backend="threads")


class TestProcessBackend:
    def test_results_in_task_order(self):
        executor = SweepExecutor(jobs=2)
        assert executor.backend == "process"
        results = executor.map_cells(make_tasks(6))
        assert [payload["value"] for payload in results] == list(range(6))

    def test_worker_exception_surfaces_exec_error(self):
        # A lambda cannot cross the process boundary; the submission
        # fails and must surface as a structured ExecError, not hang.
        task = CellTask(key="boom", fn=_value_cell, args=(lambda: None,),
                        describe="unpicklable argument")
        with pytest.raises(ExecError) as info:
            SweepExecutor(jobs=2, retries=0).map_cells([task])
        assert info.value.key == "boom"


class TestCacheIntegration:
    def test_second_invocation_hits_cache(self, tmp_path):
        cache = RunCache(tmp_path)
        metrics = MetricsRegistry()
        first = SweepExecutor(jobs=1, cache=cache, metrics=metrics)
        first.map_cells(make_tasks(4))
        assert first.stats.executed == 4
        assert metrics.value("exec.cache.miss") == 4

        second = SweepExecutor(jobs=1, cache=cache, metrics=metrics)
        results = second.map_cells(make_tasks(4))
        assert second.stats.executed == 0
        assert second.stats.cache_hits == 4
        assert metrics.value("exec.cache.hit") == 4
        assert [payload["value"] for payload in results] == [0, 1, 2, 3]

    def test_validate_rejects_stale_payloads(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put("cell-0", {"value": "stale"})
        executor = SweepExecutor(
            jobs=1, cache=cache,
            validate=lambda payload: payload.get("value") != "stale",
        )
        results = executor.map_cells(make_tasks(1))
        assert results[0]["value"] == 0
        assert executor.stats.executed == 1

    def test_uncacheable_tasks_never_touch_the_cache(self, tmp_path):
        cache = RunCache(tmp_path)
        task = CellTask(key="side-effect", fn=_value_cell, args=(9,),
                        cacheable=False)
        SweepExecutor(jobs=1, cache=cache).map_cells([task])
        assert "side-effect" not in cache

    def test_in_process_tasks_skip_cache_reads_but_write(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put("traced", {"value": "from-cache"})
        calls = {"n": 0}

        def traced_local():
            calls["n"] += 1
            return {"value": "fresh"}

        task = CellTask(key="traced", fn=_value_cell, args=(0,),
                        in_process=True, local_fn=traced_local)
        results = SweepExecutor(jobs=1, cache=cache).map_cells([task])
        assert calls["n"] == 1
        assert results[0]["value"] == "fresh"
        assert cache.get("traced") == {"value": "fresh"}


class TestJournalIntegration:
    def test_resume_skips_journaled_cells(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl", sweep="s")
        journal.start(fresh=True)
        journal.append("cell-0", {"value": 100})
        journal.append("cell-1", {"value": 101})
        journal.close()

        executor = SweepExecutor(
            jobs=1, resume=True,
            journal=CheckpointJournal(tmp_path / "j.jsonl", sweep="s"),
        )
        results = executor.map_cells(make_tasks(4))
        assert executor.stats.journal_hits == 2
        assert executor.stats.executed == 2
        assert [payload["value"] for payload in results] == [100, 101, 2, 3]
        # The journal now covers everything for the next resume.
        reread = CheckpointJournal(tmp_path / "j.jsonl", sweep="s").load()
        assert set(reread) == {"cell-0", "cell-1", "cell-2", "cell-3"}

    def test_fresh_run_truncates_old_journal(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl", sweep="s")
        journal.start(fresh=True)
        journal.append("cell-0", {"value": 100})
        journal.close()
        executor = SweepExecutor(
            jobs=1, resume=False,
            journal=CheckpointJournal(tmp_path / "j.jsonl", sweep="s"),
        )
        results = executor.map_cells(make_tasks(2))
        assert executor.stats.journal_hits == 0
        assert [payload["value"] for payload in results] == [0, 1]


class TestExecSummary:
    """The `exec:` stderr line: cache-hit ratio + per-worker counts."""

    def test_serial_describe_shape(self):
        executor = SweepExecutor(jobs=1)
        executor.map_cells(make_tasks(5))
        described = executor.stats.describe()
        assert described.startswith("serial backend, 1 worker(s): "
                                    "5 executed, 0 cache hits")
        assert "cache-hit ratio 0%" in described
        assert "cells/worker [w0=5]" in described

    def test_cached_run_reports_hit_ratio(self, tmp_path):
        cache = RunCache(tmp_path)
        SweepExecutor(jobs=1, cache=cache).map_cells(make_tasks(4))
        second = SweepExecutor(jobs=1, cache=cache)
        second.map_cells(make_tasks(4))
        described = second.stats.describe()
        assert second.stats.hit_ratio == 1.0
        assert "4 cache hits" in described
        assert "cache-hit ratio 100%" in described
        # Nothing executed, so no worker attribution.
        assert "cells/worker [-]" in described

    def test_mixed_run_ratio(self, tmp_path):
        cache = RunCache(tmp_path)
        SweepExecutor(jobs=1, cache=cache).map_cells(make_tasks(2))
        executor = SweepExecutor(jobs=1, cache=cache)
        executor.map_cells(make_tasks(4))
        assert executor.stats.hit_ratio == 0.5
        assert "cache-hit ratio 50%" in executor.stats.describe()
        assert "cells/worker [w0=2]" in executor.stats.describe()

    def test_process_backend_attributes_workers(self):
        executor = SweepExecutor(jobs=2)
        executor.map_cells(make_tasks(8))
        per_worker = executor.stats.per_worker
        assert sum(per_worker.values()) == 8
        assert set(per_worker) <= {"w0", "w1"}
        assert "process backend, 2 worker(s)" in \
            executor.stats.describe()


class TestTelemetryBusIntegration:
    def test_serial_backend_publishes_cell_events(self):
        from repro.obs.bus import TelemetryBus

        bus = TelemetryBus()
        SweepExecutor(jobs=1, bus=bus).map_cells(make_tasks(3))
        assert bus.total == 3
        assert bus.started == 3
        assert bus.finished == 3
        assert bus.done == 3
        assert bus.per_worker == {"w0": 3}

    def test_process_backend_streams_matching_events(self):
        from repro.obs.bus import TelemetryBus

        bus = TelemetryBus()
        SweepExecutor(jobs=2, bus=bus).map_cells(make_tasks(6))
        assert bus.total == 6
        assert bus.started == 6
        assert bus.finished == 6
        assert sum(bus.per_worker.values()) == 6

    def test_cached_cells_surface_as_cache_events(self, tmp_path):
        from repro.obs.bus import TelemetryBus

        cache = RunCache(tmp_path)
        SweepExecutor(jobs=1, cache=cache).map_cells(make_tasks(4))
        bus = TelemetryBus()
        SweepExecutor(jobs=1, cache=cache, bus=bus).map_cells(
            make_tasks(4))
        assert bus.cached == 4
        assert bus.finished == 0
        assert bus.done == 4
        assert bus.cache_hit_fraction == 1.0

    def test_retries_reach_the_bus(self):
        from repro.obs.bus import TelemetryBus

        failures = {"left": 1}

        def flaky():
            if failures["left"] > 0:
                failures["left"] -= 1
                raise RuntimeError("transient")
            return {"value": 1}

        bus = TelemetryBus()
        SweepExecutor(jobs=1, retries=1, bus=bus).map_cells(
            [CellTask(key="flaky", fn=flaky)])
        assert bus.retries == 1
        assert bus.finished == 1


class TestWorkerPayload:
    def test_execute_cell_payload_shape(self):
        payload = execute_cell(SMALL, 2, 0)
        assert payload_is_valid(payload, SMALL.protocols)
        assert payload["group_size"] == 2
        assert payload["run_index"] == 0
        assert set(payload["distributions"]) == set(SMALL.protocols)
        assert payload["seconds"] > 0
        assert payload["profile"] is None
        assert "tree.cost.copies" in payload["metrics"]

    def test_cells_do_not_share_registry_state(self):
        """Regression: runs must not leak metrics through process-global
        state — each cell returns a private snapshot."""
        first = execute_cell(SMALL, 2, 0)
        second = execute_cell(SMALL, 2, 1)
        for payload in (first, second):
            series = payload["metrics"]["join.converge.rounds"]["series"]
            # One observation per protocol per run — a leaked shared
            # registry would show both cells' observations pooled.
            for entry in series:
                assert entry["count"] == 1
        # Payloads are independent objects, not views of shared state.
        assert first["metrics"] is not second["metrics"]

    def test_profile_capture_returns_span_snapshot(self):
        was_enabled = PROFILER.enabled
        try:
            payload = execute_cell(SMALL, 2, 0, profile=True)
        finally:
            PROFILER.disable()
            PROFILER.reset()
            if was_enabled:
                PROFILER.enable()
        children = {child["name"]
                    for child in payload["profile"]["children"]}
        assert "harness.run_single" in children

    def test_payload_validation_rejects_foreign_shapes(self):
        assert not payload_is_valid(None, SMALL.protocols)
        assert not payload_is_valid({"format": 99}, SMALL.protocols)
        assert not payload_is_valid(
            {"format": 1, "distributions": {"hbh": {}}},
            ("hbh", "reunite"),
        )
