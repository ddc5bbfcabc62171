"""Integration: the churn experiment end to end.

The acceptance contract for ``experiments churn``: archives are
byte-identical between ``--jobs 1`` and ``--jobs 2`` (sharding is fixed,
parallelism only changes scheduling), the metrics planes all populate,
and the stream prefix matches the committed golden.  The scenario
streams themselves are pinned too: a capped stream draws only the
sessions it emits, and the regional-blackout departure window keeps
its recorded bytes.  A work ledger pins the trimmed run's control
messages, membership events, deliveries and oracle checks, and the
sha256 of its merged timeline.
"""

import hashlib
import io
import itertools
from pathlib import Path

import pytest

from repro.experiments.churn import (
    SHARD_COUNT,
    archive_text,
    build_schedule,
    get_scenario,
    render_report,
    run_churn,
    scenario_setup,
    write_stream_prefix,
)
from repro.obs.timeline import write_events_jsonl
from repro.workload import JOIN, LEAVE, SessionDuration
from repro.workload.schedule import write_stream_jsonl

# A trimmed ci-small keeps the whole module comfortably fast while
# still exercising both protocols, all shards and the settle loop.
# Churn cells always run the timeline; ``timeline=True`` only adds its
# events to the payloads (and so to the archives compared below).
RUN_KWARGS = dict(scenario_name="ci-small", seed=1, events=600,
                  channels=30, timeline=True)


@pytest.fixture(scope="module")
def serial_payloads():
    return run_churn(jobs=1, **RUN_KWARGS)


class TestDeterminismAcrossJobs:
    def test_archive_is_byte_identical_at_two_workers(
            self, serial_payloads):
        parallel_payloads = run_churn(jobs=2, **RUN_KWARGS)
        assert archive_text(parallel_payloads, "ci-small", 1) == \
            archive_text(serial_payloads, "ci-small", 1)

    def test_report_is_deterministic(self, serial_payloads):
        again = run_churn(jobs=1, **RUN_KWARGS)
        assert render_report(again, "ci-small", 1) == \
            render_report(serial_payloads, "ci-small", 1)


class TestPayloadShape:
    def test_one_payload_per_protocol_shard(self, serial_payloads):
        assert len(serial_payloads) == 2 * SHARD_COUNT
        for payload in serial_payloads:
            assert payload["scenario"] == "ci-small"
            assert payload["protocol"] in ("hbh", "reunite")
            assert 0 <= payload["shard"] < SHARD_COUNT

    def test_all_events_applied_once(self, serial_payloads):
        for protocol in ("hbh", "reunite"):
            applied = sum(p["events_applied"] for p in serial_payloads
                          if p["protocol"] == protocol)
            assert applied == RUN_KWARGS["events"]

    def test_metrics_planes_populate(self, serial_payloads):
        for payload in serial_payloads:
            digest = payload["metrics"]
            assert digest["churn.events.join"]["value"] > 0
            assert digest["churn.edges.join"]["value"] > 0
            assert digest["convergence.latency"]["count"] > 0
            assert digest["control.messages"]["value"] > 0
            assert "tree.churn.entries" in digest

    def test_oracle_ran_clean(self, serial_payloads):
        checked = sum(p["metrics"].get("churn.oracle.checked",
                                       {"value": 0})["value"]
                      for p in serial_payloads)
        violations = sum(p["metrics"].get("churn.oracle.violations",
                                          {"value": 0})["value"]
                         for p in serial_payloads)
        assert checked > 0
        assert violations == 0


class TestChurnLedger:
    """Work ledger of the churn replay: exact counts, summed over the
    shards, of the trimmed run above.  They are exact on any host.  A
    change that only makes the same work cheaper leaves them alone; a
    change that alters them updates this ledger and says why."""

    def test_counts_per_protocol(self, serial_payloads):
        names = ("control.messages", "churn.events.join",
                 "churn.events.leave", "data.deliveries", "data.missing",
                 "churn.oracle.checked", "churn.oracle.violations")
        totals = {
            protocol: {
                name: sum(p["metrics"][name]["value"]
                          for p in serial_payloads
                          if p["protocol"] == protocol)
                for name in names
            }
            for protocol in ("hbh", "reunite")
        }
        shared = {"churn.events.join": 521, "churn.events.leave": 79,
                  "data.deliveries": 227, "data.missing": 0,
                  "churn.oracle.checked": 30, "churn.oracle.violations": 0}
        assert totals == {
            "hbh": {"control.messages": 47537, **shared},
            "reunite": {"control.messages": 5525, **shared},
        }

    def test_merged_timeline_is_pinned(self, serial_payloads):
        """The merged timeline archive, as ``--timeline-out`` writes
        it.  Recorded while every round still diffed the tables; the
        drivers now diff only when a round's snapshot changed, and
        must not lose or reorder an event."""
        events = [event for payload in serial_payloads
                  for event in payload["timeline"]]
        buffer = io.StringIO()
        assert write_events_jsonl(events, buffer) == 2828
        assert hashlib.sha256(buffer.getvalue().encode()).hexdigest() == (
            "81c50a31eff46e7c0b9ef3e7db913b7ac32a00d937eedc329a08c86fb3756ad2")


class TestGoldenStreamPrefix:
    def test_prefix_matches_committed_golden(self):
        """Regenerate with::

            PYTHONPATH=src python -m repro.experiments churn \
                --scenario ci-small --seed 1 \
                --stream-out tests/golden/churn_stream_prefix.jsonl
        """
        golden = (Path(__file__).parent.parent / "golden"
                  / "churn_stream_prefix.jsonl")
        buffer = io.StringIO()
        count = write_stream_prefix("ci-small", 1, buffer, limit=256)
        assert count == 256
        assert buffer.getvalue() == golden.read_text()


def scenario_schedule(name, seed=1):
    scenario = get_scenario(name)
    sites = tuple(scenario_setup(scenario, seed).candidates)
    return build_schedule(scenario, sites, seed)


class TestScenarioStreams:
    @pytest.mark.parametrize("name,limit", [("iptv-primetime", 4_000),
                                            ("ci-small", 256)])
    def test_capped_stream_draws_only_what_it_emits(
            self, name, limit, monkeypatch):
        """Each emitted join costs one session draw; at most one more
        is drawn for the join that the cap cut off."""
        draws = []
        sample = SessionDuration.sample

        def counting_sample(self, rng):
            draws.append(None)
            return sample(self, rng)

        monkeypatch.setattr(SessionDuration, "sample", counting_sample)
        events = list(scenario_schedule(name).events(limit=limit))
        joins = sum(event.kind == JOIN for event in events)
        assert len(events) == limit
        assert len(draws) <= joins + 1

    def test_regional_blackout_window_is_pinned(self):
        """The only scenario with a regional departure: every event with
        296 <= t < 304 around its t = 300 trigger, as recorded from the
        slot-at-a-time generator."""
        stream = scenario_schedule("regional-blackout").events(start=296.0)
        window = list(itertools.takewhile(lambda e: e.time < 304.0, stream))
        buffer = io.StringIO()
        assert write_stream_jsonl(window, buffer) == 30_080
        assert sum(event.kind == LEAVE and event.time == 300.0
                   for event in window) == 23_288
        assert hashlib.sha256(buffer.getvalue().encode()).hexdigest() == (
            "11652f04e7b0ce474fa100fba28bcf83e8ac33909e1a40358b6a18b270756fea")


class TestScenarioCatalogue:
    def test_known_scenarios_resolve(self):
        for name in ("iptv-primetime", "flash-crowd", "regional-blackout",
                     "ci-small"):
            scenario = get_scenario(name)
            assert scenario.name == name
            assert scenario.channels > 0

    def test_unknown_scenario_rejected(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            get_scenario("nope")
