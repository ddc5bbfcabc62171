"""The lazy churn stream: millions of membership events, memory bounded
by the live sessions.

A :class:`ChurnSchedule` turns a :class:`~repro.workload.model.ChurnModel`
into a deterministic, *streaming* sequence of timestamped
:class:`MembershipEvent` join/leave pairs.  The generator walks
fixed-width time slots and draws each slot's arrivals, in increasing
time, from a slot-keyed ``random.Random`` (string-seeded, so the stream
is identical under any ``PYTHONHASHSEED``).  Each join is yielded as
soon as it is drawn, and its session's future leave is parked in a
per-slot bucket.  The current slot's bucket is also held in a heap, and
a leave is yielded as soon as the next drawn join passes it.  Peak
memory is the number of *concurrently active* sessions (bounded by
``rate * session.cap``), independent of how many events are consumed,
and a stream capped at ``limit`` events draws only the sessions it
emits, plus at most one.

Regional departures run as soon as the draws pass their trigger time.
A departure retimes the affected leaves in place and moves them to the
trigger's bucket; the buckets keep insertion order, because the
departure walk draws its own RNG in that order.  The retime edits
entries the current slot's heap may hold, so that heap is rebuilt after
every departure that moves a leave.

Determinism contract (the Hypothesis suite pins all of it):

- the global stream is a pure function of ``(model, sites, seed, slot)``;
- ``events(channels=...)`` filters *after* generation, so any sharding
  of the channel space yields streams whose union is exactly the
  unfiltered stream — the property the parallel churn sweep's
  byte-identical archives rest on;
- ``events(start=...)`` replays generation from t=0 and drops the
  prefix, so slicing equals filtering the full stream (resume without
  checkpoint state);
- events carry a global ``seq`` (the join draw order; a leave inherits
  its join's seq), and simultaneous events order as
  ``(time, join-before-leave, seq)``.

Arrival thinning: candidates are drawn as a homogeneous Poisson
process at the model's :meth:`~repro.workload.model.ChurnModel.peak_rate`
envelope and accepted with probability ``rate(t) / peak_rate`` — the
standard construction for a time-varying (diurnal + flash-crowd) rate
that keeps every draw attributable to one slot's RNG.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
)

from repro.workload.model import ChurnModel, WorkloadError

NodeId = Hashable

#: Event kinds (module constants so drivers dispatch on identity).
JOIN = "join"
LEAVE = "leave"

#: Default slot width (seconds of model time): the span of one arrival
#: RNG and one leave bucket.  The stream's *content* is slot-width
#: dependent (each slot owns an RNG), so ``slot`` is part of the
#: schedule identity, like ``seed``.
DEFAULT_SLOT = 64.0


@dataclass(frozen=True, slots=True)
class MembershipEvent:
    """One timestamped membership change.

    ``channel`` is the model's popularity rank (0 = head channel);
    ``site`` the receiver node joining or leaving; ``hosts`` the
    aggregation weight (this one sim receiver stands for that many end
    hosts); ``seq`` the global join-draw index shared by a session's
    join and leave.  Carries ``time``/``kind`` like the fault-plane
    events, so :func:`repro.netsim.faults.merge_timelines` composes the
    two streams without adapters.
    """

    time: float
    kind: str
    channel: int
    site: NodeId
    hosts: int
    seq: int

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible projection (one JSONL line, sorted keys)."""
        return {
            "time": self.time,
            "kind": self.kind,
            "channel": self.channel,
            "site": self.site if isinstance(
                self.site, (str, int, float, bool)) else repr(self.site),
            "hosts": self.hosts,
            "seq": self.seq,
        }


class ChurnSchedule:
    """A deterministic lazy stream of membership events.

    ``sites`` are the candidate receiver nodes (each arrival picks one
    uniformly); they are sorted once so the stream does not depend on
    the caller's ordering.  ``seed`` keys every random draw through
    string-seeded ``random.Random`` instances — stable across
    processes, platforms and ``PYTHONHASHSEED``.
    """

    def __init__(self, model: ChurnModel, sites: Sequence[NodeId],
                 seed: int = 0, name: str = "",
                 slot: float = DEFAULT_SLOT) -> None:
        if not sites:
            raise WorkloadError("churn schedule needs at least one site")
        if slot <= 0:
            raise WorkloadError(f"slot width must be > 0: {slot}")
        self.model = model
        self.sites = tuple(sorted(sites, key=str))
        self.seed = seed
        self.name = name
        self.slot = slot
        site_set = set(self.sites)
        for departure in model.departures:
            unknown = [s for s in departure.sites if s not in site_set]
            if unknown:
                raise WorkloadError(
                    f"regional departure references unknown sites "
                    f"{sorted(map(str, unknown))}"
                )

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def events(self, limit: Optional[int] = None,
               channels: Optional[Iterable[int]] = None,
               start: float = 0.0) -> Iterator[MembershipEvent]:
        """The event stream, lazily.

        ``limit`` bounds the *global* stream (counted before channel
        filtering, so shards of one limited stream always partition it
        exactly); ``channels`` keeps only those channel indices;
        ``start`` drops events before that time (generation still
        replays from t=0, so a sliced stream is byte-identical to the
        same slice of the full one).
        """
        stream: Iterator[MembershipEvent] = self._generate()
        if limit is not None:
            stream = itertools.islice(stream, limit)
        wanted = frozenset(channels) if channels is not None else None
        for event in stream:
            if event.time < start:
                continue
            if wanted is not None and event.channel not in wanted:
                continue
            yield event

    def _generate(self) -> Iterator[MembershipEvent]:
        """The unbounded global stream (see module docstring for the
        slot/bucket construction)."""
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
        #: Latest trigger first, so the next one due is popped off the end.
        departures = sorted(enumerate(model.departures),
                            key=lambda pair: (pair[1].time, pair[0]),
                            reverse=True)

        def depart_before(bound: float, k: int, heap: list) -> list:
            """Run every departure triggering before ``bound`` and
            return slot ``k``'s leave heap, rebuilt after a retime."""
            while departures and departures[-1][1].time < bound:
                # Correlated regional departure: every session active
                # at the trigger (joined before, leaving after) at a
                # region site departs early with the departure's
                # probability.  The walk order (buckets by index,
                # entries in insertion order) and the departure's own
                # string-seeded RNG make the retiming deterministic.
                index, departure = departures.pop()
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
                    target = int(trigger // slot)
                    pending.setdefault(target, []).extend(moved)
                    # The retime edited entries in place: drop their
                    # stale heap items, requeue those now due in slot k.
                    heap = [item for item in heap if item[0] == item[2][0]]
                    if target == k:
                        heap.extend((entry[0], entry[4], entry)
                                    for entry in moved)
                    heapq.heapify(heap)
            return heap

        def leave(entry: list) -> MembershipEvent:
            return MembershipEvent(time=entry[0], kind=LEAVE,
                                   channel=entry[2], site=entry[3],
                                   hosts=hosts, seq=entry[4])

        heappop, heappush = heapq.heappop, heapq.heappush
        seq = 0
        k = 0
        while True:
            slot_start = k * slot
            slot_end = slot_start + slot
            rng = random.Random(f"{seed}/churn/{k}")
            #: Slot k's unemitted leaves as (leave_time, seq, entry).
            heap = [(entry[0], entry[4], entry)
                    for entry in pending.get(k, ())]
            heapq.heapify(heap)
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
                if departures and departures[-1][1].time < t:
                    heap = depart_before(t, k, heap)
                while heap and heap[0][0] < t:
                    yield leave(heappop(heap)[2])
                yield MembershipEvent(
                    time=t, kind=JOIN, channel=channel, site=site,
                    hosts=hosts, seq=seq,
                )
                leave_time = t + duration
                entry = [leave_time, t, channel, site, seq]
                bucket = int(leave_time // slot)
                pending.setdefault(bucket, []).append(entry)
                if bucket == k:
                    heappush(heap, (leave_time, seq, entry))
                seq += 1
            heap = depart_before(slot_end, k, heap)
            heap.sort()
            for item in heap:
                yield leave(item[2])
            pending.pop(k, None)
            k += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def active_sessions(self) -> int:
        """Never materialised — provided on the *events*, not here; the
        ledger (:class:`repro.workload.membership.MembershipLedger`)
        tracks live occupancy during replay."""
        raise WorkloadError(
            "a ChurnSchedule is a stream, not a state; replay it through "
            "a MembershipLedger to track occupancy"
        )

    def describe(self) -> str:
        """Deterministic header for reports and archives."""
        return (
            f"ChurnSchedule {self.name or '(unnamed)'} "
            f"(seed={self.seed}, slot={self.slot:g}, "
            f"{len(self.sites)} sites)\n" + self.model.describe()
        )

    def __repr__(self) -> str:
        return (f"ChurnSchedule({self.name!r}, seed={self.seed}, "
                f"channels={self.model.channels}, sites={len(self.sites)})")


def write_stream_jsonl(events: Iterable[MembershipEvent], target) -> int:
    """Archive events as sorted-key JSON lines (golden-prefix files and
    ``--stream-out``); returns the count written."""
    import json
    from pathlib import Path

    lines = [json.dumps(event.to_dict(), sort_keys=True) for event in events]
    text = "\n".join(lines) + ("\n" if lines else "")
    if hasattr(target, "write"):
        target.write(text)
    else:
        Path(target).write_text(text)
    return len(lines)
