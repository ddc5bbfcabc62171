"""Unit tests for the tree-dynamics timeline and convergence monitor."""

import gc
import io
import json
import weakref

import pytest

from repro.core.static_driver import StaticHbh
from repro.obs.registry import MetricsRegistry
from repro.obs.timeline import (
    ALL_CHANNELS,
    BRANCH_ADD,
    BRANCH_REMOVE,
    ENTRY_ADD,
    ENTRY_MARK,
    ENTRY_REMOVE,
    PERTURB,
    REROUTE,
    STABILIZE,
    ConvergenceMonitor,
    TimelineEvent,
    TreeTimeline,
    event_from_dict,
    read_events,
    write_events_jsonl,
)
from repro.protocols.reunite.static_driver import StaticReunite
from repro.routing.tables import UnicastRouting


class TestTimelineEvent:
    def test_to_dict_omits_empty_node_and_detail(self):
        event = TimelineEvent(seq=1, t=2.0, protocol="hbh",
                              channel="<1,G>", kind=ENTRY_ADD)
        assert event.to_dict() == {
            "seq": 1, "t": 2.0, "protocol": "hbh",
            "channel": "<1,G>", "kind": ENTRY_ADD,
        }

    def test_to_dict_round_trips_through_from_dict(self):
        event = TimelineEvent(seq=7, t=3.5, protocol="reunite",
                              channel="<2,G>", kind=REROUTE, node=4,
                              detail="9: 2 -> 4")
        assert event_from_dict(event.to_dict()) == event

    def test_str_is_the_log_line(self):
        event = TimelineEvent(seq=1, t=52.0, protocol="hbh",
                              channel="<1,G>", kind=ENTRY_ADD, node=3,
                              detail="mft 9")
        assert str(event) == "t=52 [hbh <1,G>] entry-add @3 (mft 9)"


class TestTreeTimelineRecording:
    def test_seq_is_a_total_order(self):
        timeline = TreeTimeline(enabled=True)
        for t in (1.0, 2.0, 3.0):
            timeline.record(t, "hbh", "<1,G>", ENTRY_ADD, node=1)
        assert [e.seq for e in timeline.events()] == [1, 2, 3]

    def test_ring_evicts_oldest_and_counts_drops(self):
        registry = MetricsRegistry()
        timeline = TreeTimeline(enabled=True, maxlen=2, registry=registry)
        for t in (1.0, 2.0, 3.0):
            timeline.record(t, "hbh", "<1,G>", ENTRY_ADD, node=int(t))
        assert [e.t for e in timeline.events()] == [2.0, 3.0]
        assert timeline.dropped == 1
        assert registry.value("timeline.dropped") == 1.0

    def test_clear_keeps_seq_monotonic(self):
        timeline = TreeTimeline(enabled=True)
        timeline.record(1.0, "hbh", "<1,G>", ENTRY_ADD)
        timeline.clear()
        event = timeline.record(2.0, "hbh", "<1,G>", ENTRY_ADD)
        assert event.seq == 2
        assert timeline.dropped == 0


class TestObserveTablesDiff:
    def _rows(self, *nodes):
        return [(node, "mft", 9) for node in nodes]

    def test_first_observation_emits_adds_and_branch_adds(self):
        timeline = TreeTimeline(enabled=True)
        emitted = timeline.observe_tables(1.0, "hbh", "<1,G>",
                                          self._rows(1, 2))
        kinds = [e.kind for e in timeline.events()]
        assert emitted == 4
        assert kinds == [ENTRY_ADD, ENTRY_ADD, BRANCH_ADD, BRANCH_ADD]

    def test_no_change_emits_nothing(self):
        timeline = TreeTimeline(enabled=True)
        timeline.observe_tables(1.0, "hbh", "<1,G>", self._rows(1))
        assert timeline.observe_tables(2.0, "hbh", "<1,G>",
                                       self._rows(1)) == 0

    def test_removal_emits_entry_and_branch_removes(self):
        timeline = TreeTimeline(enabled=True)
        timeline.observe_tables(1.0, "hbh", "<1,G>", self._rows(1, 2))
        timeline.clear()
        timeline.observe_tables(2.0, "hbh", "<1,G>", self._rows(1))
        kinds = [e.kind for e in timeline.events()]
        assert kinds == [ENTRY_REMOVE, BRANCH_REMOVE]

    def test_address_moving_between_nodes_is_a_reroute(self):
        timeline = TreeTimeline(enabled=True)
        timeline.observe_tables(1.0, "hbh", "<1,G>", [(2, "mft", 9)])
        timeline.clear()
        timeline.observe_tables(2.0, "hbh", "<1,G>", [(4, "mft", 9)])
        kinds = [e.kind for e in timeline.events()]
        assert REROUTE in kinds
        assert ENTRY_ADD not in kinds and ENTRY_REMOVE not in kinds
        reroute = next(e for e in timeline.events() if e.kind == REROUTE)
        assert reroute.node == 4
        assert reroute.detail == "9: 2 -> 4"

    def test_mark_flip_on_surviving_row_is_entry_mark(self):
        timeline = TreeTimeline(enabled=True)
        rows = self._rows(1)
        timeline.observe_tables(1.0, "reunite", "<1,G>", rows)
        timeline.clear()
        timeline.observe_tables(2.0, "reunite", "<1,G>", rows, marked=rows)
        timeline.observe_tables(3.0, "reunite", "<1,G>", rows)
        details = [e.detail for e in timeline.events()
                   if e.kind == ENTRY_MARK]
        assert details == ["mft 9 marked", "mft 9 unmarked"]

    def test_forget_restarts_the_diff_from_empty(self):
        timeline = TreeTimeline(enabled=True)
        timeline.observe_tables(1.0, "hbh", "<1,G>", self._rows(1))
        timeline.forget("hbh", "<1,G>")
        timeline.clear()
        timeline.observe_tables(2.0, "hbh", "<1,G>", self._rows(1))
        assert [e.kind for e in timeline.events()] == [ENTRY_ADD,
                                                       BRANCH_ADD]

    def test_non_branch_tables_never_pair_as_reroutes(self):
        timeline = TreeTimeline(enabled=True)
        timeline.observe_tables(1.0, "hbh", "<1,G>", [(2, "join", 9)])
        timeline.clear()
        timeline.observe_tables(2.0, "hbh", "<1,G>", [(4, "join", 9)])
        kinds = sorted(e.kind for e in timeline.events())
        assert kinds == [ENTRY_ADD, ENTRY_REMOVE]


class TestJsonlArchive:
    def test_round_trip_is_lossless_and_sorted_key(self):
        timeline = TreeTimeline(enabled=True)
        timeline.record(1.0, "hbh", "<1,G>", ENTRY_ADD, node=3,
                        detail="mft 9")
        timeline.record(2.0, "hbh", "<1,G>", PERTURB)
        buffer = io.StringIO()
        assert timeline.to_jsonl(buffer) == 2
        text = buffer.getvalue()
        assert text.endswith("\n")
        for line in text.splitlines():
            payload = json.loads(line)
            assert list(payload) == sorted(payload)
        assert read_events(io.StringIO(text)) == timeline.events()

    def test_reader_ignores_sweep_annotation_keys(self):
        event = {"seq": 1, "t": 2.0, "protocol": "hbh", "channel": "c",
                 "kind": ENTRY_ADD, "n": 8, "run": 3}
        loaded = read_events(io.StringIO(json.dumps(event) + "\n"))
        assert loaded[0].kind == ENTRY_ADD

    def test_empty_archive_is_empty_file(self):
        buffer = io.StringIO()
        assert write_events_jsonl([], buffer) == 0
        assert buffer.getvalue() == ""


class TestConvergenceMonitor:
    def _wired(self, quiet=5.0, window=None):
        registry = MetricsRegistry()
        timeline = TreeTimeline(enabled=True, registry=registry)
        monitor = ConvergenceMonitor(registry, quiet=quiet, window=window)
        timeline.attach_monitor(monitor)
        return registry, timeline, monitor

    def test_quiet_window_closes_with_latency_and_churn(self):
        registry, timeline, monitor = self._wired(quiet=5.0)
        timeline.perturb(10.0, "hbh", "<1,G>", detail="join")
        timeline.record(11.0, "hbh", "<1,G>", ENTRY_ADD, node=1)
        timeline.record(13.0, "hbh", "<1,G>", ENTRY_ADD, node=2)
        assert monitor.poll(17.0) == []  # only 4 quiet sim-seconds
        closed = monitor.poll(18.0)
        assert len(closed) == 1
        assert closed[0]["latency"] == pytest.approx(3.0)
        assert closed[0]["churn"] == 2
        assert closed[0]["t"] == pytest.approx(13.0)
        hist = registry.histogram("convergence.latency", protocol="hbh",
                                  channel="<1,G>")
        assert hist.count == 1
        assert registry.value("convergence.windows", protocol="hbh",
                              channel="<1,G>") == 1.0

    def test_no_structural_change_is_a_zero_latency_window(self):
        _registry, timeline, monitor = self._wired(quiet=5.0)
        timeline.perturb(10.0, "hbh", "<1,G>")
        closed = monitor.poll(15.0)
        assert closed[0]["latency"] == 0.0
        assert closed[0]["churn"] == 0

    def test_structural_change_extends_the_quiet_clock(self):
        _registry, timeline, monitor = self._wired(quiet=5.0)
        timeline.perturb(10.0, "hbh", "<1,G>")
        timeline.record(14.0, "hbh", "<1,G>", ENTRY_ADD)
        assert monitor.poll(15.0) == []  # quiet restarts at t=14
        assert len(monitor.poll(19.0)) == 1

    def test_steady_state_refresh_outside_window_is_ignored(self):
        registry, timeline, monitor = self._wired(quiet=5.0)
        timeline.record(1.0, "hbh", "<1,G>", ENTRY_ADD)
        assert monitor.open_windows == 0
        timeline.perturb(10.0, "hbh", "<1,G>")
        closed = monitor.poll(15.0)
        assert closed[0]["churn"] == 0
        assert list(registry.collect("convergence.pending")) == []

    def test_network_wide_perturb_opens_every_watched_channel(self):
        _registry, timeline, monitor = self._wired()
        monitor.watch("hbh", "<1,G>")
        monitor.watch("hbh", "<2,G>")
        timeline.perturb(10.0, detail="link-cut")
        assert monitor.open_windows == 2
        perturb = timeline.events()[0]
        assert (perturb.protocol, perturb.channel) == (ALL_CHANNELS,
                                                       ALL_CHANNELS)

    def test_stabilize_event_lands_back_in_the_timeline(self):
        _registry, timeline, monitor = self._wired(quiet=5.0)
        timeline.perturb(10.0, "hbh", "<1,G>")
        timeline.record(12.0, "hbh", "<1,G>", ENTRY_ADD)
        monitor.poll(20.0)
        stabilize = timeline.events()[-1]
        assert stabilize.kind == STABILIZE
        assert stabilize.t == 12.0
        assert stabilize.detail == "latency=2 churn=1"

    def test_finalize_counts_open_windows_as_pending(self):
        registry, timeline, monitor = self._wired(quiet=5.0)
        timeline.perturb(10.0, "hbh", "<1,G>")
        timeline.record(11.0, "hbh", "<1,G>", ENTRY_ADD)
        summary = monitor.finalize(12.0)  # not quiet yet
        assert summary["hbh <1,G>"]["pending"] == 1
        assert registry.value("convergence.pending", protocol="hbh",
                              channel="<1,G>") == 1.0
        assert monitor.open_windows == 0

    def test_finalize_is_idempotent_for_closed_windows(self):
        registry, timeline, monitor = self._wired(quiet=5.0)
        timeline.perturb(10.0, "hbh", "<1,G>")
        monitor.finalize(20.0)
        monitor.finalize(30.0)
        hist = registry.histogram("convergence.latency", protocol="hbh",
                                  channel="<1,G>")
        assert hist.count == 1
        assert list(registry.collect("convergence.pending")) == []

    def test_control_load_buckets_flush_in_bucket_order(self):
        registry, timeline, monitor = self._wired(quiet=5.0, window=10.0)
        for t, count in ((1.0, 2), (4.0, 3), (12.0, 7), (25.0, 1)):
            timeline.control(t, "hbh", "<1,G>", count)
        monitor.finalize(30.0)
        hist = registry.histogram("control.load.window", protocol="hbh",
                                  channel="<1,G>")
        assert hist.values() == [5.0, 7.0, 1.0]

    def test_quiet_must_be_positive(self):
        with pytest.raises(ValueError):
            ConvergenceMonitor(MetricsRegistry(), quiet=0.0)

    def test_monitor_holds_its_timeline_weakly(self):
        _registry, timeline, monitor = self._wired()
        assert monitor.timeline is timeline
        ref = weakref.ref(timeline)
        del timeline
        assert ref() is None
        assert monitor.timeline is None
        monitor.perturb("hbh", "<1,G>", 1.0)
        assert monitor.poll(10.0)[0]["latency"] == 0.0  # nothing to record into


class TestNoReferenceCycles:
    """A driver's timeline, monitor and registry form no reference
    cycle, so a dropped channel is freed by reference counting at
    once, not by the next full collection."""

    @pytest.mark.parametrize("driver_cls", [StaticHbh, StaticReunite])
    def test_a_dropped_driver_frees_its_observers(self, driver_cls,
                                                  fig2_topology):
        enabled = gc.isenabled()
        gc.disable()
        try:
            driver = driver_cls(fig2_topology, 0,
                                routing=UnicastRouting(fig2_topology))
            registry = MetricsRegistry()
            timeline = TreeTimeline(enabled=True, registry=registry)
            monitor = ConvergenceMonitor(registry, quiet=3.0)
            driver.attach_timeline(timeline, monitor=monitor)
            for receiver in (11, 12, 13):
                driver.add_receiver(receiver)
                driver.converge()
            driver.remove_receiver(12)
            for _ in range(6):
                driver.run_round()
            assert STABILIZE in {event.kind for event in timeline.events()}
            refs = [weakref.ref(obj)
                    for obj in (driver, timeline, monitor, registry)]
            del driver, timeline, monitor, registry
            assert [ref() for ref in refs] == [None, None, None, None]
        finally:
            if enabled:
                gc.enable()
