"""Differential: the one-pass round end against the three-walk one.

A round used to end with three walks over the channel state: every
table aged (``_expire``), then the convergence snapshot, then — with a
timeline attached — the timeline's own walk over the tables and an
unconditional row diff.  Now one sorted walk ages the tables and
builds the snapshot, and the timeline diffs only when that snapshot
changed.  Here a test-local subclass of each driver keeps the older
round end verbatim, and random join/leave/round/converge/re-attach
sequences on the Fig. 2, ISP and random50 topologies run it beside the
production driver.  After every round both must hold the same
snapshot, message count and timeline events, and ``converge`` must
return the same round count (or fail the same way).
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.static_driver import StaticHbh
from repro.errors import ProtocolError
from repro.experiments.config import make_isp_setup, make_random50_setup
from repro.obs.registry import MetricsRegistry
from repro.obs.timeline import ConvergenceMonitor, TreeTimeline
from repro.protocols.reunite.static_driver import StaticReunite
from repro.routing.tables import UnicastRouting
from repro.topology import paper


class _ThreeWalkRoundEnd:
    """The round end before the single pass: ``_expire()``, then a
    pure ``_snapshot()``, then an unconditional timeline diff over a
    separate walk of the tables (mixed in ahead of a driver class)."""

    def run_round(self) -> Tuple:
        self.round_no += 1
        receivers = self._receivers_sorted
        if receivers is None:
            receivers = self._receivers_sorted = sorted(self.receivers)
        self._join_phase(receivers)
        self._tree_phase()
        self._expire()
        timeline = self.timeline
        if timeline is not None and timeline.enabled:
            now = self.now
            rows, marks = self._walk_timeline_rows()
            timeline.observe_tables(now, self.protocol, self.channel_name,
                                    rows, marks)
            timeline.control(now, self.protocol, self.channel_name,
                             self.messages_processed
                             - self._timeline_messages)
            self._timeline_messages = self.messages_processed
            timeline.poll(now)
        # ``converge`` took this same read after every round.
        return self._walk_snapshot()

    def _expire(self) -> None:
        now, timing = self.now, self.timing
        self._expire_source(now, timing)
        emptied = []
        for node, state in self.states.items():
            state.expire(now, timing)
            if not state.in_tree:
                emptied.append(node)
        for node in emptied:
            del self.states[node]


class ThreeWalkHbh(_ThreeWalkRoundEnd, StaticHbh):
    def _expire_source(self, now, timing) -> None:
        self.source_mft.expire(now, timing)

    def _walk_snapshot(self) -> Tuple:
        now, timing = self.now, self.timing
        t1 = timing.t1
        items: List[Tuple] = []
        append = items.append
        states = self.states
        for node in sorted(states):
            state = states[node]
            mct = state.mct
            if mct is not None:
                append((node, "mct", mct.entry.address,
                        mct.is_stale(now, timing)))
            mft = state.mft
            if mft is not None:
                for entry in mft.entries():
                    marked_at = entry.marked_at
                    append((node, "mft", entry.address,
                            marked_at is not None and (now - marked_at) < t1,
                            entry.forced_stale
                            or (now - entry.refreshed_at) >= t1))
        source = self.source
        for entry in self.source_mft.entries():
            marked_at = entry.marked_at
            append((source, "src", entry.address,
                    marked_at is not None and (now - marked_at) < t1,
                    entry.forced_stale or (now - entry.refreshed_at) >= t1))
        return tuple(items)

    def _walk_timeline_rows(self) -> Tuple[List[Tuple], List[Tuple]]:
        now, t1 = self.now, self.timing.t1
        rows: List[Tuple] = []
        marks: List[Tuple] = []
        states = self.states
        for node in sorted(states):
            state = states[node]
            mct = state.mct
            if mct is not None:
                rows.append((node, "mct", mct.entry.address))
            mft = state.mft
            if mft is not None:
                for entry in mft.entries():
                    row = (node, "mft", entry.address)
                    rows.append(row)
                    marked_at = entry.marked_at
                    if marked_at is not None and (now - marked_at) < t1:
                        marks.append(row)
        source = self.source
        for entry in self.source_mft.entries():
            row = (source, "src", entry.address)
            rows.append(row)
            marked_at = entry.marked_at
            if marked_at is not None and (now - marked_at) < t1:
                marks.append(row)
        return rows, marks


class ThreeWalkReunite(_ThreeWalkRoundEnd, StaticReunite):
    def _expire_source(self, now, timing) -> None:
        self.source_state.expire(now, timing)
        source_mft = self.source_state.mft
        if source_mft is not None and source_mft.dst is None:
            source_mft.promote_receiver_to_dst(now, timing)
            if source_mft.empty:
                self.source_state.mft = None

    def _walk_snapshot(self) -> Tuple:
        now, timing = self.now, self.timing
        items: List[Tuple] = []

        def emit(node, state) -> None:
            if state.mct is not None:
                for entry in state.mct:
                    items.append((node, "mct", entry.address,
                                  entry.is_stale(now, timing)))
            if state.mft is not None:
                dst = state.mft.dst
                items.append((
                    node, "dst",
                    dst.address if dst is not None else None,
                    state.mft.is_stale(now, timing),
                ))
                for entry in state.mft.receivers():
                    items.append((node, "mft", entry.address,
                                  entry.is_stale(now, timing)))

        emit(self.source, self.source_state)
        for node in sorted(self.states):
            emit(node, self.states[node])
        return tuple(items)

    def _walk_timeline_rows(self) -> Tuple[List[Tuple], List[Tuple]]:
        rows: List[Tuple] = []

        def emit(node, state) -> None:
            if state.mct is not None:
                for entry in state.mct:
                    rows.append((node, "mct", entry.address))
            if state.mft is not None:
                dst = state.mft.dst
                if dst is not None:
                    rows.append((node, "dst", dst.address))
                for entry in state.mft.receivers():
                    rows.append((node, "mft", entry.address))

        emit(self.source, self.source_state)
        for node in sorted(self.states):
            emit(node, self.states[node])
        return rows, []


@lru_cache(maxsize=None)
def _scenario(name: str):
    """``(topology, source, receiver candidates)``; drivers never
    mutate a topology, so one build serves every example."""
    if name == "fig2":
        return paper.fig2_topology(), 0, (11, 12, 13)
    setup = (make_isp_setup(2001) if name == "isp"
             else make_random50_setup(7))
    return setup.topology, setup.source, tuple(setup.candidates)


def _attach(driver) -> TreeTimeline:
    registry = MetricsRegistry()
    timeline = TreeTimeline(enabled=True, registry=registry)
    driver.attach_timeline(timeline, ConvergenceMonitor(registry, quiet=3.0))
    return timeline


class _Pair:
    """The production driver and its three-walk twin on one channel."""

    def __init__(self, driver_cls, reference_cls, name: str) -> None:
        topology, source, self.candidates = _scenario(name)
        self.driver = driver_cls(topology, source,
                                 routing=UnicastRouting(topology))
        self.reference = reference_cls(topology, source,
                                       routing=UnicastRouting(topology))
        self.rounds: List[Tuple] = []
        self.reference_rounds: List[Tuple] = []
        self._record(self.driver, self.rounds)
        self._record(self.reference, self.reference_rounds)
        self.attach()

    @staticmethod
    def _record(driver, log: List[Tuple]) -> None:
        """Log each round's closing snapshot and what followed it."""
        run_round = driver.run_round

        def recorded() -> Tuple:
            snapshot = run_round()
            log.append((driver.round_no, snapshot, driver._snapshot(),
                        driver.messages_processed))
            return snapshot

        driver.run_round = recorded

    def attach(self) -> None:
        self.timelines = (_attach(self.driver), _attach(self.reference))

    def check(self) -> None:
        assert self.rounds == self.reference_rounds
        for _, closing, reread, _ in self.rounds:
            assert closing == reread
        assert self.driver._snapshot() == self.reference._walk_snapshot()
        assert set(self.driver.states) == set(self.reference.states)
        timeline, reference = self.timelines
        assert timeline.event_dicts() == reference.event_dicts()
        assert timeline.monitor.summary() == reference.monitor.summary()


OPS = st.lists(
    st.tuples(st.sampled_from(["join", "leave", "round", "converge",
                               "attach"]),
              st.integers(0, 10_000)),
    min_size=1, max_size=14,
)


def _replay(pair: _Pair, ops) -> None:
    candidates = pair.candidates
    members: List = []
    for op, pick in ops:
        if op == "join":
            outside = [c for c in candidates if c not in members]
            if not outside:
                continue
            receiver = outside[pick % len(outside)]
            members.append(receiver)
            pair.driver.add_receiver(receiver)
            pair.reference.add_receiver(receiver)
        elif op == "leave":
            if not members:
                continue
            receiver = members.pop(pick % len(members))
            pair.driver.remove_receiver(receiver)
            pair.reference.remove_receiver(receiver)
        elif op == "round":
            for _ in range(1 + pick % 3):
                pair.driver.run_round()
                pair.reference.run_round()
        elif op == "converge":
            outcomes = []
            for driver in (pair.driver, pair.reference):
                try:
                    outcomes.append(driver.converge(max_rounds=40))
                except ProtocolError as error:
                    outcomes.append(str(error))
            assert outcomes[0] == outcomes[1]
        else:
            # A fresh timeline: the first diff must run against its
            # empty baseline even if the tables did not change.
            pair.attach()
        pair.check()


COMMON = settings(max_examples=25, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
SCENARIOS = st.sampled_from(["fig2", "isp", "random50"])


class TestOnePassRoundEnd:
    @COMMON
    @given(SCENARIOS, OPS)
    def test_hbh_matches_three_walk_round_end(self, name, ops):
        _replay(_Pair(StaticHbh, ThreeWalkHbh, name), ops)

    @COMMON
    @given(SCENARIOS, OPS)
    def test_reunite_matches_three_walk_round_end(self, name, ops):
        _replay(_Pair(StaticReunite, ThreeWalkReunite, name), ops)
