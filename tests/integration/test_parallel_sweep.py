"""Integration: the determinism contract of the execution engine.

``--jobs 1`` and ``--jobs N`` must produce byte-identical sweep
results; a sweep killed mid-flight must resume from its checkpoint
journal into that same result; and a warm cache must serve a repeat
sweep without executing anything — again into that same result.
"""

import json
from dataclasses import replace

import pytest

import repro.exec.sweep as sweep_mod
from repro.exec.executor import ExecError
from repro.exec.worker import execute_cell
from repro.experiments.config import FIGURE_CONFIGS, SweepConfig
from repro.experiments.harness import run_sweep
from repro.experiments.storage import result_from_dict, result_to_dict

SMALL = SweepConfig(name="small", topology="isp", group_sizes=(2, 4),
                    runs=3, seed=7)


def canonical_json(result) -> str:
    return json.dumps(result_to_dict(result, canonical=True),
                      sort_keys=True)


@pytest.fixture(scope="module")
def serial_reference():
    return run_sweep(SMALL)


class TestSerialParallelEquivalence:
    def test_process_backend_matches_serial_bytes(self, serial_reference):
        parallel = run_sweep(SMALL, jobs=4)
        assert parallel.exec_stats.backend == "process"
        assert canonical_json(parallel) == canonical_json(serial_reference)

    def test_cached_rerun_matches_serial_bytes(self, tmp_path,
                                               serial_reference):
        first = run_sweep(SMALL, cache_dir=tmp_path)
        assert first.exec_stats.executed == 6
        second = run_sweep(SMALL, cache_dir=tmp_path, jobs=2)
        assert second.exec_stats.executed == 0
        assert second.exec_stats.cache_hits == 6
        for result in (first, second):
            assert canonical_json(result) == canonical_json(serial_reference)

    def test_canonical_archive_round_trips(self, serial_reference):
        data = result_to_dict(serial_reference, canonical=True)
        assert data["elapsed_seconds"] == 0.0
        reloaded = result_from_dict(data)
        assert canonical_json(reloaded) == canonical_json(serial_reference)


class TestTelemetryBus:
    """The bus is purely observational: attaching it changes nothing
    about the result, and both backends stream equivalent telemetry."""

    def test_bus_does_not_perturb_parallel_results(self,
                                                   serial_reference):
        from repro.obs.bus import TelemetryBus

        bus = TelemetryBus()
        result = run_sweep(SMALL, jobs=2, bus=bus)
        assert canonical_json(result) == canonical_json(serial_reference)
        assert bus.total == 6
        assert bus.finished + bus.cached + bus.journal == 6
        assert bus.started == 6
        assert bus.in_flight == {}

    def test_serial_and_parallel_tallies_match(self):
        from repro.obs.bus import TelemetryBus

        serial_bus, parallel_bus = TelemetryBus(), TelemetryBus()
        run_sweep(SMALL, jobs=1, bus=serial_bus)
        run_sweep(SMALL, jobs=2, bus=parallel_bus)
        for key in ("total", "done", "started", "finished", "cached",
                    "journal", "retries"):
            assert serial_bus.summary()[key] == parallel_bus.summary()[key]

    def test_merged_inflight_registry_matches_result_metrics(self):
        from repro.obs.bus import TelemetryBus

        bus = TelemetryBus()
        result = run_sweep(SMALL, jobs=2, bus=bus)
        # The bus folds each cell's snapshot as it lands; the sweep
        # merges the same snapshots in task order.  Same observations,
        # different order -> identical aggregate values.
        for protocol in SMALL.protocols:
            series = [
                (labels, instrument.value)
                for _n, labels, instrument
                in bus.registry.collect("control.messages")
                if labels["protocol"] == protocol
            ]
            assert series
            for labels, value in series:
                assert value == result.metrics.value(
                    "control.messages", **labels)

    def test_cached_rerun_streams_cache_events(self, tmp_path):
        from repro.obs.bus import TelemetryBus

        run_sweep(SMALL, cache_dir=tmp_path)
        bus = TelemetryBus()
        run_sweep(SMALL, cache_dir=tmp_path, jobs=2, bus=bus)
        assert bus.cached == 6
        assert bus.finished == 0
        assert bus.cache_hit_fraction == 1.0


class TestKillAndResume:
    def test_interrupted_sweep_resumes_into_identical_result(
            self, tmp_path, serial_reference, monkeypatch):
        executed = []

        def dying_cell(config, group_size, run_index, *args, **kwargs):
            if len(executed) >= 2:
                raise KeyboardInterrupt  # the operator's Ctrl-C
            executed.append((group_size, run_index))
            return execute_cell(config, group_size, run_index,
                                *args, **kwargs)

        monkeypatch.setattr(sweep_mod, "execute_cell", dying_cell)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(SMALL, cache_dir=tmp_path)
        assert len(executed) == 2
        monkeypatch.undo()

        resumed = run_sweep(SMALL, cache_dir=tmp_path, resume=True)
        assert resumed.exec_stats.journal_hits == 2
        assert resumed.exec_stats.executed == 4
        assert canonical_json(resumed) == canonical_json(serial_reference)

    def test_resume_without_cache_dir_is_rejected(self):
        with pytest.raises(ExecError):
            run_sweep(SMALL, resume=True)


class TestExecMetrics:
    def test_sweep_records_engine_metrics(self, tmp_path):
        result = run_sweep(SMALL, cache_dir=tmp_path, jobs=2)
        registry = result.metrics
        assert registry.value("exec.workers") == 2
        assert registry.value("exec.cache.miss") == 6
        assert registry.histogram("exec.run.seconds").count == 6

    def test_canonical_serialization_drops_exec_series(self, tmp_path):
        result = run_sweep(SMALL, cache_dir=tmp_path)
        full = result_to_dict(result)
        canonical = result_to_dict(result, canonical=True)
        assert any(name.startswith("exec.") for name in full["metrics"])
        assert not any(name.startswith("exec.")
                       for name in canonical["metrics"])
        # Everything else survives canonicalization.
        assert {name for name in full["metrics"]
                if not name.startswith("exec.")} == set(canonical["metrics"])


class TestDeterministicCellErrors:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unknown_protocol_fails_at_first_attempt(self, jobs):
        """An ``ExperimentError`` from a cell is not retried: a seeded
        cell would raise it again on every attempt."""
        config = replace(FIGURE_CONFIGS["fig7a"], runs=1,
                         protocols=("hbh", "bogus"))
        with pytest.raises(ExecError) as info:
            run_sweep(config, jobs=jobs)
        assert info.value.attempts == 1
        assert "unknown protocol 'bogus'" in str(info.value)
