"""Property-based tests for the churn workload (repro.workload).

The determinism contract under test: a stream is a pure function of
(model, sites, seed, slot) — independent of process, hash seed, caller
site-ordering, and of how the stream is sliced or sharded.  The lazy
generator is also checked differentially against the slot-at-a-time
generator it replaced, kept here as the reference.
"""

import itertools
import os
import random
import subprocess
import sys
from typing import Dict, Iterator, List

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.workload import (
    JOIN,
    LEAVE,
    ChurnModel,
    ChurnSchedule,
    DiurnalCurve,
    FlashCrowd,
    MembershipEvent,
    RegionalDeparture,
    SessionDuration,
    ZipfPopularity,
)

COMMON = settings(max_examples=40, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
SITES = ("n1", "n2", "n3", "n4", "n5")


def sort_key(event):
    return (event.time, 0 if event.kind == JOIN else 1, event.seq)


def regional_departures(times, min_size=0, max_size=3):
    """Tuples of departures over :data:`SITES` triggering at ``times``."""
    departure = st.builds(
        RegionalDeparture, time=times,
        sites=st.lists(st.sampled_from(SITES), min_size=1,
                       unique=True).map(tuple),
        fraction=st.floats(0.05, 1.0),
    )
    return st.lists(departure, min_size=min_size,
                    max_size=max_size).map(tuple)


@st.composite
def clustered_departures(draw, slot):
    """One to five departures inside one slot, drawn from at most three
    trigger instants so that equal triggers are common."""
    slot_start = draw(st.integers(0, 1)) * slot
    instants = draw(st.lists(st.floats(0.0, slot, exclude_max=True),
                             min_size=1, max_size=3))
    return draw(regional_departures(
        st.sampled_from([slot_start + x for x in instants]),
        min_size=1, max_size=5))


@st.composite
def churn_models(draw, departures=None, rates=st.floats(1.0, 50.0)):
    channels = draw(st.integers(2, 40))
    base_rate = draw(rates)
    kind = draw(st.sampled_from(SessionDuration.KINDS))
    scale = draw(st.floats(1.0, 30.0))
    diurnal = None
    if draw(st.booleans()):
        trough = draw(st.floats(0.1, 1.0))
        peak = draw(st.floats(1.0, 3.0))
        diurnal = DiurnalCurve(peak=peak, trough=trough,
                               period=draw(st.floats(50.0, 500.0)))
    crowds = ()
    if draw(st.booleans()):
        crowds = (FlashCrowd(time=draw(st.floats(0.0, 100.0)),
                             magnitude=draw(st.floats(1.0, 5.0)),
                             rise=draw(st.floats(1.0, 30.0)),
                             decay=draw(st.floats(1.0, 60.0))),)
    if departures is None:
        # Triggers within about the span a 120-event stream covers.
        departures = regional_departures(st.floats(0.0, 60.0 / base_rate))
    return ChurnModel(
        channels=channels, base_rate=base_rate,
        session=SessionDuration(kind=kind, scale=scale, cap=scale * 4),
        popularity_exponent=draw(st.floats(0.0, 1.5)),
        diurnal=diurnal, flash_crowds=crowds,
        departures=draw(departures),
        host_scale=draw(st.integers(1, 100)),
    )


class EagerSchedule(ChurnSchedule):
    """The reference: the generator that drew and sorted a whole slot
    before yielding any of it (its body verbatim, but for the sort
    key's name)."""

    def _generate(self) -> Iterator[MembershipEvent]:
        model = self.model
        sites = self.sites
        n_sites = len(sites)
        popularity = model.popularity()
        session = model.session
        hosts = model.host_scale
        peak = model.peak_rate()
        rate = model.rate
        slot = self.slot
        seed = self.seed
        #: leave-slot index -> [leave_time, join_time, channel, site, seq]
        pending: Dict[int, List[list]] = {}
        departures = sorted(enumerate(model.departures),
                            key=lambda pair: (pair[1].time, pair[0]))
        next_departure = 0
        seq = 0
        k = 0
        while True:
            slot_start = k * slot
            slot_end = slot_start + slot
            rng = random.Random(f"{seed}/churn/{k}")
            joins: List[MembershipEvent] = []
            t = slot_start
            while True:
                t += rng.expovariate(peak)
                if t >= slot_end:
                    break
                if rng.random() * peak > rate(t):
                    continue  # thinned away (off-peak instant)
                channel = popularity.sample(rng)
                site = sites[rng.randrange(n_sites)]
                duration = session.sample(rng)
                joins.append(MembershipEvent(
                    time=t, kind=JOIN, channel=channel, site=site,
                    hosts=hosts, seq=seq,
                ))
                leave_time = t + duration
                pending.setdefault(int(leave_time // slot), []).append(
                    [leave_time, t, channel, site, seq])
                seq += 1
            # Correlated regional departures triggering inside this
            # slot: every session active at the trigger (joined before,
            # leaving after) at a region site departs early with the
            # departure's probability.  The walk order (buckets by
            # index, entries in insertion order) and the departure's
            # own string-seeded RNG make the retiming deterministic.
            while (next_departure < len(departures)
                   and departures[next_departure][1].time < slot_end):
                index, departure = departures[next_departure]
                next_departure += 1
                dep_rng = random.Random(f"{seed}/departure/{index}")
                region = frozenset(departure.sites)
                trigger = departure.time
                moved: List[list] = []
                for bucket_key in sorted(pending):
                    if (bucket_key + 1) * slot <= trigger:
                        continue  # bucket ends before the trigger
                    kept: List[list] = []
                    for entry in pending[bucket_key]:
                        leave_time, join_time, _channel, site, _seq = entry
                        if (join_time <= trigger < leave_time
                                and site in region
                                and dep_rng.random() < departure.fraction):
                            entry[0] = trigger
                            moved.append(entry)
                        else:
                            kept.append(entry)
                    pending[bucket_key] = kept
                if moved:
                    pending.setdefault(int(trigger // slot), []).extend(moved)
            leaves = [
                MembershipEvent(time=entry[0], kind=LEAVE, channel=entry[2],
                                site=entry[3], hosts=hosts, seq=entry[4])
                for entry in pending.pop(k, ())
            ]
            merged = joins + leaves
            merged.sort(key=sort_key)
            yield from merged
            k += 1


class TestSeedDeterminism:
    @COMMON
    @given(churn_models(), st.integers(0, 2**32))
    def test_same_seed_means_identical_stream(self, model, seed):
        first = list(ChurnSchedule(model, SITES, seed=seed)
                     .events(limit=120))
        second = list(ChurnSchedule(model, SITES, seed=seed)
                      .events(limit=120))
        assert first == second

    @COMMON
    @given(churn_models(), st.integers(0, 2**16))
    def test_site_ordering_is_irrelevant(self, model, seed):
        fwd = ChurnSchedule(model, SITES, seed=seed)
        rev = ChurnSchedule(model, tuple(reversed(SITES)), seed=seed)
        assert list(fwd.events(limit=80)) == list(rev.events(limit=80))

    def test_stream_survives_pythonhashseed(self):
        """The stream is byte-identical across hash-randomized
        interpreters — string seeding, not hash(), keys the RNGs."""
        script = (
            "import json, sys\n"
            "from repro.workload import ChurnModel, ChurnSchedule, "
            "SessionDuration\n"
            "model = ChurnModel(channels=8, base_rate=12.0,\n"
            "    session=SessionDuration(scale=4.0, cap=16.0))\n"
            "schedule = ChurnSchedule(model, ('x', 'y', 'z'), seed=11)\n"
            "for event in schedule.events(limit=40):\n"
            "    print(json.dumps(event.to_dict(), sort_keys=True))\n"
        )
        outputs = []
        for hashseed in ("1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, ["src", env.get("PYTHONPATH", "")]))
            result = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("\n") == 40


class TestSlicingEquivalence:
    @COMMON
    @given(churn_models(), st.integers(0, 2**16), st.integers(2, 4))
    def test_shards_partition_the_stream(self, model, seed, shards):
        schedule = ChurnSchedule(model, SITES, seed=seed)
        full = list(schedule.events(limit=90))
        pieces = [
            list(schedule.events(
                limit=90, channels=range(s, model.channels, shards)))
            for s in range(shards)
        ]
        recombined = sorted(itertools.chain.from_iterable(pieces),
                            key=sort_key)
        assert recombined == full

    @COMMON
    @given(churn_models(), st.integers(0, 2**16),
           st.floats(1.0, 60.0, allow_nan=False))
    def test_resume_equals_prefix_drop(self, model, seed, cut):
        schedule = ChurnSchedule(model, SITES, seed=seed)
        full = list(schedule.events(limit=90))
        resumed = list(schedule.events(limit=90, start=cut))
        assert resumed == [e for e in full if e.time >= cut]


class TestLazyMatchesEager:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_stream_equals_the_eager_reference(self, data):
        slot = data.draw(st.sampled_from((3.0, 8.0, 16.0)), label="slot")
        model = data.draw(churn_models(clustered_departures(slot),
                                       rates=st.floats(5.0, 15.0)),
                          label="model")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        # Always finite: a shard matching no event would never end.
        limit = data.draw(st.integers(1, 2_500) | st.integers(1_500, 2_500),
                          label="limit")
        shards = data.draw(st.integers(1, 4), label="shards")
        shard = data.draw(st.integers(0, shards - 1), label="shard")
        channels = (None if shards == 1
                    else range(shard, model.channels, shards))
        start = data.draw(st.just(0.0) | st.floats(0.0, 3 * slot),
                          label="start")
        window = dict(limit=limit, channels=channels, start=start)
        lazy = ChurnSchedule(model, SITES, seed=seed, slot=slot)
        eager = EagerSchedule(model, SITES, seed=seed, slot=slot)
        assert list(lazy.events(**window)) == list(eager.events(**window))


class TestModelBounds:
    @COMMON
    @given(st.floats(0.1, 1.0), st.floats(1.0, 4.0),
           st.floats(10.0, 1000.0), st.floats(0.0, 2000.0))
    def test_diurnal_stays_within_band(self, trough, peak, period, t):
        curve = DiurnalCurve(peak=peak, trough=trough, period=period)
        assert trough - 1e-9 <= curve.multiplier(t) <= peak + 1e-9

    @COMMON
    @given(st.integers(1, 500), st.floats(0.0, 2.0))
    def test_zipf_shares_are_a_distribution(self, channels, exponent):
        pop = ZipfPopularity(channels, exponent=exponent)
        shares = [pop.share(c) for c in range(channels)]
        assert all(s > 0 for s in shares)
        assert abs(sum(shares) - 1.0) < 1e-9
        # Non-increasing in rank (up to cdf-difference rounding noise).
        assert all(shares[i] >= shares[i + 1] - 1e-12
                   for i in range(channels - 1))

    @COMMON
    @given(churn_models(), st.floats(0.0, 1000.0))
    def test_rate_never_exceeds_envelope(self, model, t):
        assert model.rate(t) <= model.peak_rate() + 1e-9
