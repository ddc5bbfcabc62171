"""The online convergence monitor against the post-hoc recovery oracle.

The tentpole claim of the timeline plane: the *online* monitor, which
only sees table mutations as they happen, must agree with the *post-hoc*
delivery probe on every fault scenario — same recovered/unconverged
verdict, and a latency bounded by what the probe measured plus the
protocol's own soft-state tail (stale entries age out up to ``t2``
after the data plane already recovered, and the probe itself only
samples once per tree period).
"""

import io
from pathlib import Path

import pytest

from repro.experiments.faults import (
    FAST,
    SCENARIOS,
    run_scenario,
    run_scenarios,
    scenario_timeline,
)
from repro.experiments.figures import figure_config
from repro.experiments.harness import run_sweep
from repro.obs.registry import MetricsRegistry
from repro.obs.timeline import PERTURB, STABILIZE, write_events_jsonl

#: Slack between online latency and the probe's recovery time: the
#: probe samples once per tree period, and stale pre-fault entries may
#: decay up to t2 after delivery recovered.
LATENCY_SLACK = FAST.t2 + FAST.tree_period


def _run_with_timeline(name: str):
    registry = MetricsRegistry()
    timeline = scenario_timeline(registry)
    result, registry = run_scenario(name, seed=1, registry=registry,
                                    timeline=timeline)
    return result, registry, timeline


@pytest.mark.parametrize("name", sorted(SCENARIOS))
class TestOnlineAgreesWithOracle:
    def test_verdicts_and_latency_bounds(self, name):
        result, _registry, _timeline = _run_with_timeline(name)
        assert result.convergence is not None
        digests = list(result.convergence.values())
        assert len(digests) == 1  # one watched channel
        digest = digests[0]

        # Verdict agreement: the channel converged online exactly when
        # the delivery probe saw it recover.
        assert (digest["pending"] == 0) == result.recovered

        fault_start = result.last_fault_time - result.schedule.horizon
        fault_windows = [w for w in digest["windows"]
                         if w["opened_t"] >= fault_start]
        join_windows = [w for w in digest["windows"]
                        if w["opened_t"] < fault_start]
        # The join convergence closed as its own window before faults.
        assert len(join_windows) == 1

        if not result.recovered:
            return
        assert result.recovery_time is not None
        for window in fault_windows:
            # Stabilisation cannot predate the perturbation...
            assert window["t"] >= window["opened_t"]
            # ...and online latency is the probe's recovery time plus at
            # most the soft-state decay tail.
            assert window["latency"] <= (result.recovery_time
                                         + LATENCY_SLACK)

    def test_metrics_and_markers_are_consistent(self, name):
        result, registry, timeline = _run_with_timeline(name)
        digest = next(iter(result.convergence.values()))
        closed = len(digest["windows"])
        events = timeline.events()
        stabilizes = [e for e in events if e.kind == STABILIZE]
        assert len(stabilizes) == closed
        assert any(e.kind == PERTURB for e in events)
        latency_hist = registry.histogram("convergence.latency",
                                          protocol="hbh",
                                          channel=digest["channel"])
        assert latency_hist.count == closed
        assert sorted(latency_hist.values()) == sorted(digest["latencies"])


class TestDeterminism:
    def test_scenario_events_are_replay_identical(self):
        _result, _registry, first = _run_with_timeline("primary-cut")
        _result, _registry, second = _run_with_timeline("primary-cut")
        assert first.event_dicts() == second.event_dicts()

    def test_jsonl_is_byte_identical_across_jobs(self):
        def archive(jobs: int) -> str:
            payloads = run_scenarios(seed=1, jobs=jobs, timeline=True)
            events = [dict(event, scenario=payload["scenario"])
                      for payload in payloads
                      for event in payload["timeline"]]
            buffer = io.StringIO()
            write_events_jsonl(events, buffer)
            return buffer.getvalue()

        serial = archive(jobs=1)
        parallel = archive(jobs=2)
        assert serial == parallel
        assert serial  # the archive actually has events in it

    def test_primary_cut_matches_the_committed_golden(self):
        """The primary-cut event stream is pinned byte-for-byte in
        ``tests/golden/timeline_primary_cut.jsonl`` — the same file the
        CI explain-golden job ``cmp``s against.  An intentional change
        to the event vocabulary or the diff order regenerates it::

            PYTHONPATH=src python -m repro.experiments timeline \
                --scenario primary-cut \
                --timeline-out tests/golden/timeline_primary_cut.jsonl
        """
        golden = (Path(__file__).parent.parent / "golden"
                  / "timeline_primary_cut.jsonl")
        _result, _registry, timeline = _run_with_timeline("primary-cut")
        buffer = io.StringIO()
        write_events_jsonl(
            [dict(event, scenario="primary-cut")
             for event in timeline.event_dicts()], buffer)
        assert buffer.getvalue() == golden.read_text()

    def test_fig7a_prefix_matches_the_committed_golden(self):
        """The round drivers' event stream (HBH entry add/remove/mark
        and branch-add, REUNITE entry add/remove and branch-add, both
        protocols' perturbs) is pinned by the first 256 lines of a
        one-run Fig. 7(a) archive in
        ``tests/golden/timeline_fig7a_prefix.jsonl``; regenerate with::

            PYTHONPATH=src python -m repro.experiments fig7a --runs 1 \
                --quiet --timeline-out sweep.jsonl
            head -256 sweep.jsonl > tests/golden/timeline_fig7a_prefix.jsonl
        """
        golden = (Path(__file__).parent.parent / "golden"
                  / "timeline_fig7a_prefix.jsonl")
        result = run_sweep(figure_config("fig7a", runs=1), timeline=True)
        buffer = io.StringIO()
        write_events_jsonl(result.timeline_events, buffer)
        prefix = buffer.getvalue().splitlines(keepends=True)[:256]
        assert "".join(prefix) == golden.read_text()
