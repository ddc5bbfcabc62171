"""The churn experiment: mass-membership workloads per protocol.

``experiments churn`` replays a named seed-reproducible workload
(:mod:`repro.workload`) against the round-driven protocols and sweeps
the cost of living under it: control-plane message load, tree-change
counts, convergence latency (the online monitor's windows) and oracle
violations.

Execution shape: the channel space is split into :data:`SHARD_COUNT`
fixed shards (independent of ``--jobs``, so parallelism never changes
cell content) and each ``(protocol, shard)`` pair becomes one executor
cell.  A cell regenerates the *global* event stream, filters it to its
shard's channels (schedule filtering is post-generation, so the shards
partition the stream exactly), and replays it through a
:class:`~repro.workload.driver.RoundChurnPlayer`: every
protocol-visible membership edge joins/leaves a lazily-created
per-channel protocol instance, batched per :data:`TICK` of model time
and re-converged once per batch.  Each channel carries its own
:class:`~repro.obs.timeline.TreeTimeline` +
:class:`~repro.obs.timeline.ConvergenceMonitor` (round clocks are
per-driver, so a shared monitor clock would lie).

Payloads carry a metrics *digest* (histograms pooled across channels
and summarised), not raw registries — a million-event run must not
produce a hundred-megabyte archive.  Folding payloads in task order
makes the rendered report and the ``--save`` archive byte-identical
across ``--jobs`` values, which CI asserts.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.netsim.faults import (
    FaultSchedule,
    LinkDown,
    LinkUp,
    RoundFaultPlayer,
    candidate_fault_links,
)
from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.timeline import ConvergenceMonitor, TreeTimeline
from repro.core.tables import ROUND_TIMING
from repro.experiments.config import TOPOLOGY_FACTORIES, TopologySetup
from repro.protocols.base import build_protocol
from repro.routing.tables import shared_routing
from repro.verify.oracle import ConvergenceOracle
from repro.workload import (
    ChurnModel,
    ChurnSchedule,
    DiurnalCurve,
    FlashCrowd,
    RegionalDeparture,
    RoundChurnPlayer,
    SessionDuration,
)
from repro.workload.schedule import DEFAULT_SLOT, write_stream_jsonl

#: Fixed shard count: cell identity must not depend on ``--jobs``.
SHARD_COUNT = 4

#: Model seconds per replay batch: edges inside one tick converge
#: together (protocols batch a round's membership reports anyway).
TICK = 8.0

#: Protocols the replay loop supports: round-driven, timeline-capable.
CHURN_PROTOCOLS = ("hbh", "reunite")

#: Oracle spot-checks per cell (full checks on a million channels
#: would dwarf the experiment itself).
ORACLE_CAP = 24

#: Channels per cell contributing timeline events to ``--timeline-out``.
TIMELINE_CHANNELS = 6

#: Per-channel settle budget when closing convergence windows at the
#: end of the replay.
MAX_SETTLE_ROUNDS = 24


@dataclass(frozen=True)
class ChurnScenario:
    """A named workload: model parameters plus optional fault overlay.

    Composite shapes are plain tuples (picklable, hashable) expanded
    into model objects by :meth:`build_model`:

    - ``diurnal``: ``(peak, trough, period, peak_time)``;
    - ``flash_crowds``: ``(time, magnitude, rise, decay)`` each;
    - ``departure``: ``(time, site_fraction, leave_fraction)`` — the
      first ``site_fraction`` of the sorted site list departs;
    - ``faults``: ``(down_time, up_time)`` — cut/restore the first
      candidate router-router link, merged into the event stream.
    """

    name: str
    description: str
    channels: int
    events: int
    base_rate: float
    topology: str = "isp"
    session_kind: str = "exponential"
    session_scale: float = 120.0
    session_cap: float = 900.0
    popularity_exponent: float = 1.0
    diurnal: Optional[Tuple[float, float, float, float]] = None
    flash_crowds: Tuple[Tuple[float, float, float, float], ...] = ()
    departure: Optional[Tuple[float, float, float]] = None
    faults: Optional[Tuple[float, float]] = None
    host_scale: int = 1
    slot: float = DEFAULT_SLOT

    def build_model(self, sites: Sequence, channels: Optional[int] = None
                    ) -> ChurnModel:
        """The concrete :class:`ChurnModel` over ``sites``."""
        departures = ()
        if self.departure is not None:
            time, site_fraction, leave_fraction = self.departure
            count = max(1, int(len(sites) * site_fraction))
            region = tuple(sorted(sites, key=str)[:count])
            departures = (RegionalDeparture(time, region, leave_fraction),)
        return ChurnModel(
            channels=channels or self.channels,
            base_rate=self.base_rate,
            popularity_exponent=self.popularity_exponent,
            session=SessionDuration(kind=self.session_kind,
                                    scale=self.session_scale,
                                    cap=self.session_cap),
            diurnal=(DiurnalCurve(*self.diurnal)
                     if self.diurnal is not None else None),
            flash_crowds=tuple(FlashCrowd(*crowd)
                               for crowd in self.flash_crowds),
            departures=departures,
            host_scale=self.host_scale,
        )

    def build_faults(self, topology, source, sites,
                     seed: int) -> Optional[FaultSchedule]:
        """The fault overlay (None when the scenario has no faults)."""
        if self.faults is None:
            return None
        links = candidate_fault_links(topology, source, sites)
        if not links:
            raise ExperimentError(
                f"scenario {self.name!r}: no candidate fault link"
            )
        a, b = links[0]
        down, up = self.faults
        return FaultSchedule([LinkDown(down, a, b), LinkUp(up, a, b)],
                             seed=seed, name=f"{self.name}-faults")


SCENARIOS: Dict[str, ChurnScenario] = {
    scenario.name: scenario
    for scenario in (
        ChurnScenario(
            name="iptv-primetime",
            description="a prime-time IPTV audience: Zipf channel "
                        "surfing over 1000 channels under a diurnal "
                        "load curve, each sim receiver standing in "
                        "for 50 subscriber hosts",
            channels=1000,
            events=1_000_000,
            base_rate=600.0,
            diurnal=(1.5, 0.5, 600.0, 0.0),
            host_scale=50,
        ),
        ChurnScenario(
            name="flash-crowd",
            description="two breaking-news spikes over a steady "
                        "audience: arrivals surge 5x then 3x and "
                        "decay, stressing join convergence on the "
                        "head channels",
            channels=1000,
            events=1_000_000,
            base_rate=400.0,
            session_kind="lognormal",
            session_scale=90.0,
            session_cap=900.0,
            flash_crowds=((120.0, 5.0, 30.0, 180.0),
                          (480.0, 3.0, 20.0, 120.0)),
            host_scale=50,
        ),
        ChurnScenario(
            name="regional-blackout",
            description="half the sites brown out mid-broadcast "
                        "(correlated mass-leave) while a backbone "
                        "link cuts and heals — churn and faults in "
                        "one merged timeline",
            channels=1000,
            events=1_000_000,
            base_rate=500.0,
            departure=(300.0, 0.5, 0.9),
            faults=(300.0, 420.0),
            host_scale=50,
        ),
        ChurnScenario(
            name="ci-small",
            description="a small deterministic workload for CI: "
                        "seconds, not minutes, same code path",
            channels=50,
            events=2_000,
            base_rate=40.0,
            session_scale=30.0,
            session_cap=120.0,
            diurnal=(1.5, 0.5, 120.0, 0.0),
            host_scale=10,
            slot=16.0,
        ),
    )
}


def get_scenario(name: str) -> ChurnScenario:
    """Look up a scenario by name with a helpful error."""
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ExperimentError(
            f"unknown churn scenario {name!r} (known: {known})"
        ) from None


def scenario_setup(scenario: ChurnScenario, seed: int) -> TopologySetup:
    """The (deterministic) topology every cell of a run shares."""
    return TOPOLOGY_FACTORIES[scenario.topology](
        f"churn/{scenario.name}/{seed}"
    )


def build_schedule(scenario: ChurnScenario, sites: Sequence, seed: int,
                   channels: Optional[int] = None) -> ChurnSchedule:
    """The scenario's schedule over ``sites`` (channel count
    overridable from the CLI)."""
    model = scenario.build_model(sites, channels)
    return ChurnSchedule(model, sites, seed=seed, name=scenario.name,
                         slot=scenario.slot)


# ----------------------------------------------------------------------
# The replay cell
# ----------------------------------------------------------------------
class _FaultBridge:
    """Routes merged fault events to the round fault player and marks
    every member-carrying channel dirty (faults perturb all trees)."""

    def __init__(self, player: RoundFaultPlayer, runs: dict,
                 dirty: set) -> None:
        self.player = player
        self.runs = runs
        self.dirty = dirty

    def advance(self, time: float) -> None:
        self.player.advance(time)
        for index in sorted(self.runs):
            instance = self.runs[index]
            if not instance.receivers:
                continue
            driver = instance.driver
            driver.timeline.perturb(
                driver.now, instance.name, instance.channel_id(),
                detail=f"fault t={time:g}",
            )
            self.dirty.add(index)


def _churn_cell(scenario_name: str, protocol: str, shard: int,
                shard_count: int, seed: int, events: Optional[int],
                channels: Optional[int], want_timeline: bool,
                flows: bool = False, flow_sample: int = 1) -> dict:
    """One (protocol, shard) replay — module-level, picklable."""
    from repro.obs.flow import FlowTelemetry

    scenario = get_scenario(scenario_name)
    n_channels = channels or scenario.channels
    limit = events or scenario.events
    setup = scenario_setup(scenario, seed)
    topology, source = setup.topology, setup.source
    sites = tuple(setup.candidates)
    routing = shared_routing(topology)
    registry = MetricsRegistry()
    labels = {"protocol": protocol, "scenario": scenario_name}
    flow = None
    if flows:
        # crc32 of the cell coordinates (never ``hash()``): every
        # worker layout derives the identical sampling salt.
        flow = FlowTelemetry(
            enabled=True, sample_every=flow_sample, registry=registry,
            seed=zlib.crc32(
                f"{scenario_name}/{protocol}/{shard}/{seed}".encode()),
        )

    schedule = build_schedule(scenario, sites, seed, n_channels)
    stream: Iterable = schedule.events(
        limit=limit, channels=range(shard, n_channels, shard_count)
    )

    runs: Dict[int, object] = {}
    dirty: set = set()

    def make_run(index: int):
        instance = build_protocol(protocol, topology, source,
                                  routing=routing, group=f"G{index}")
        timeline = TreeTimeline(enabled=True, maxlen=64, registry=registry)
        monitor = ConvergenceMonitor(registry, quiet=ROUND_TIMING.t2)
        instance.attach_timeline(timeline, monitor=monitor)
        return instance

    def on_first(event) -> None:
        instance = runs.get(event.channel)
        if instance is None:
            instance = runs[event.channel] = make_run(event.channel)
        instance.add_receiver(event.site)
        dirty.add(event.channel)

    def on_last(event) -> None:
        runs[event.channel].remove_receiver(event.site)
        dirty.add(event.channel)

    faults = scenario.build_faults(topology, source, sites, seed)
    fault_bridge = None
    if faults is not None:
        fault_player = RoundFaultPlayer(topology, faults)
        fault_bridge = _FaultBridge(fault_player, runs, dirty)
        stream = faults.merge(stream)

    player = RoundChurnPlayer(stream, on_first=on_first, on_last=on_last,
                              fault_player=fault_bridge,
                              registry=registry, labels=labels)

    now = 0.0
    while not player.exhausted:
        now += TICK
        player.advance(now)
        for index in sorted(dirty):
            runs[index].converge(max_rounds=80)
        dirty.clear()

    # Settle: close every still-open convergence window on protocol
    # silence, then measure the surviving trees.
    for index in sorted(runs):
        instance = runs[index]
        monitor = instance.driver.timeline.monitor
        for _ in range(MAX_SETTLE_ROUNDS):
            if not monitor.open_windows:
                break
            instance.driver.run_round()
        if instance.receivers:
            distribution = instance.distribute_data()
            instance.record_metrics(registry, distribution)
            instance.record_flow(flow, distribution, t=now)

    checked = violations = 0
    for index in sorted(runs)[:ORACLE_CAP]:
        instance = runs[index]
        if not instance.receivers:
            continue
        oracle = ConvergenceOracle(topology, source,
                                   sorted(instance.receivers),
                                   routing=routing)
        report = oracle.check(instance)
        checked += 1
        violations += len(report.violations)
    registry.inc("churn.oracle.checked", float(checked), **labels)
    registry.inc("churn.oracle.violations", float(violations), **labels)

    groups, sessions, hosts = player.ledger.totals()
    registry.set_gauge("churn.active.groups", float(groups), **labels)
    registry.set_gauge("churn.active.sessions", float(sessions), **labels)
    registry.set_gauge("churn.active.hosts", float(hosts), **labels)

    timeline_events: Optional[List[dict]] = None
    if want_timeline:
        timeline_events = []
        for index in sorted(runs)[:TIMELINE_CHANNELS]:
            timeline_events.extend(runs[index].driver.timeline.event_dicts())
    for index in sorted(runs):
        runs[index].finish_timeline()

    payload = {
        "scenario": scenario_name,
        "protocol": protocol,
        "shard": shard,
        "seed": seed,
        "events_applied": player.events_applied,
        "faults_seen": player.faults_seen,
        "channels_touched": len(runs),
        "metrics": digest_registry(registry),
        "timeline": timeline_events,
    }
    if flow is not None:
        # SLO rows are computed cell-side: the digest pools histograms
        # across label sets, which would destroy the per-channel
        # resolution the scoreboard needs.  Shards partition the
        # channel space, so concatenating cells in task order never
        # collides.
        payload["flows"] = flow.record_dicts()
        payload["flow_util"] = flow.util_rows()
        payload["slo"] = flow.slo_rows()
    return payload


# ----------------------------------------------------------------------
# Metrics digest
# ----------------------------------------------------------------------
def _quantile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    index = min(len(values) - 1, round(q * (len(values) - 1)))
    return values[index]


def digest_registry(registry: MetricsRegistry) -> Dict[str, dict]:
    """Pool every series of each metric across its label sets and
    summarise: counters/gauges sum; histograms keep count, mean and
    tail quantiles.  Deterministic (collect() iterates sorted), and
    five orders of magnitude smaller than a raw snapshot of a
    million-event run."""
    pooled: Dict[str, dict] = {}
    for name, _labels, instrument in registry.collect():
        if isinstance(instrument, Histogram):
            entry = pooled.setdefault(
                name, {"kind": "histogram", "values": []})
            entry["values"].extend(instrument.values())
        else:
            kind = registry.kind_of(name)
            entry = pooled.setdefault(name, {"kind": kind, "value": 0.0})
            entry["value"] += instrument.value
    for name, entry in pooled.items():
        if entry["kind"] != "histogram":
            continue
        values = sorted(entry.pop("values"))
        count = len(values)
        entry["count"] = count
        entry["mean"] = (sum(values) / count) if count else 0.0
        entry["p50"] = _quantile(values, 0.50)
        entry["p95"] = _quantile(values, 0.95)
        entry["max"] = values[-1] if values else 0.0
    return pooled


def _merge_digests(digests: Iterable[Dict[str, dict]]) -> Dict[str, dict]:
    """Fold per-cell digests (counters sum; histograms pool counts and
    count-weighted means — quantiles do not merge, so they stay
    per-cell in the archive)."""
    merged: Dict[str, dict] = {}
    for digest in digests:
        for name, entry in digest.items():
            if entry["kind"] == "histogram":
                target = merged.setdefault(
                    name, {"kind": "histogram", "count": 0, "mean": 0.0,
                           "max": 0.0})
                total = target["count"] + entry["count"]
                if total:
                    target["mean"] = (
                        target["mean"] * target["count"]
                        + entry["mean"] * entry["count"]) / total
                target["count"] = total
                target["max"] = max(target["max"], entry["max"])
            else:
                target = merged.setdefault(
                    name, {"kind": entry["kind"], "value": 0.0})
                target["value"] += entry["value"]
    return merged


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
def run_churn(scenario_name: str = "iptv-primetime",
              protocols: Optional[Sequence[str]] = None,
              seed: int = 1, jobs: int = 1, bus=None,
              events: Optional[int] = None,
              channels: Optional[int] = None,
              timeline: bool = False,
              flows: bool = False,
              flow_sample: int = 1) -> List[dict]:
    """Run one churn scenario as ``protocols x SHARD_COUNT`` executor
    cells; returns payloads in task order (the determinism anchor:
    payload content is independent of ``jobs``).  ``flows=True`` runs
    every cell under a per-cell
    :class:`~repro.obs.flow.FlowTelemetry` (1-in-``flow_sample``
    deterministic sampling): payloads gain ``flows`` (sampled
    records), ``flow_util`` (link utilization rows) and ``slo``
    (per-channel scoreboard rows) — the ``experiments flows`` report."""
    from repro.exec.executor import CellTask, SweepExecutor

    get_scenario(scenario_name)
    protocols = tuple(protocols) if protocols else CHURN_PROTOCOLS
    for protocol in protocols:
        if protocol not in CHURN_PROTOCOLS:
            known = ", ".join(CHURN_PROTOCOLS)
            raise ExperimentError(
                f"churn replay needs a round-driven timeline-capable "
                f"protocol, not {protocol!r} (supported: {known})"
            )
    tasks = [
        CellTask(
            key=f"churn:{scenario_name}:{protocol}:{shard}:{seed}",
            fn=_churn_cell,
            args=(scenario_name, protocol, shard, SHARD_COUNT, seed,
                  events, channels, timeline, flows, flow_sample),
            describe=(f"scenario={scenario_name} protocol={protocol} "
                      f"shard={shard}/{SHARD_COUNT}"),
            cacheable=False,
        )
        for protocol in protocols
        for shard in range(SHARD_COUNT)
    ]
    return SweepExecutor(jobs=jobs, bus=bus).map_cells(tasks)


def archive_dict(payloads: List[dict], scenario_name: str,
                 seed: int) -> dict:
    """The canonical ``--save`` archive: cells in task order plus the
    per-protocol merged digest.  ``json.dumps(..., sort_keys=True)`` of
    this is the byte-identity CI compares across ``--jobs``."""
    protocols = sorted({payload["protocol"] for payload in payloads})
    merged = {
        protocol: _merge_digests(
            payload["metrics"] for payload in payloads
            if payload["protocol"] == protocol)
        for protocol in protocols
    }
    return {
        "experiment": "churn",
        "scenario": scenario_name,
        "seed": seed,
        "shards": SHARD_COUNT,
        "cells": payloads,
        "merged": merged,
    }


def archive_text(payloads: List[dict], scenario_name: str,
                 seed: int) -> str:
    """The archive as canonical JSON text."""
    return json.dumps(archive_dict(payloads, scenario_name, seed),
                      sort_keys=True, indent=2) + "\n"


def _metric(digest: Dict[str, dict], name: str, field: str = "value",
            default: float = 0.0) -> float:
    entry = digest.get(name)
    if entry is None:
        return default
    return float(entry.get(field, default))


def render_report(payloads: List[dict], scenario_name: str,
                  seed: int) -> str:
    """Deterministic per-protocol summary of one churn run."""
    scenario = get_scenario(scenario_name)
    lines = [
        f"== churn scenario {scenario_name!r} (seed {seed}) ==",
        scenario.description,
        "",
    ]
    protocols = sorted({payload["protocol"] for payload in payloads})
    for protocol in protocols:
        cells = [p for p in payloads if p["protocol"] == protocol]
        digest = _merge_digests(c["metrics"] for c in cells)
        applied = sum(c["events_applied"] for c in cells)
        touched = sum(c["channels_touched"] for c in cells)
        lines.append(f"-- {protocol} --")
        lines.append(
            f"  events applied: {applied} across {touched} channels "
            f"({len(cells)} shards)"
        )
        lines.append(
            f"  membership edges: "
            f"{_metric(digest, 'churn.edges.join'):g} joins, "
            f"{_metric(digest, 'churn.edges.leave'):g} leaves "
            f"(hosts weighted: {_metric(digest, 'churn.hosts.join'):g} in, "
            f"{_metric(digest, 'churn.hosts.leave'):g} out)"
        )
        latency = digest.get("convergence.latency",
                             {"count": 0, "mean": 0.0, "max": 0.0})
        lines.append(
            f"  convergence windows: {latency['count']} closed, "
            f"mean latency {latency['mean']:g} rounds, "
            f"max {latency['max']:g}"
        )
        churn_entries = digest.get("tree.churn.entries",
                                   {"count": 0, "mean": 0.0})
        lines.append(
            f"  tree churn: {churn_entries['count']} windows, "
            f"mean {churn_entries['mean']:g} entries touched"
        )
        load = digest.get("control.load.window", {"count": 0, "mean": 0.0})
        lines.append(
            f"  control load: mean {load['mean']:g} messages/window "
            f"over {load['count']} windows; "
            f"{_metric(digest, 'control.messages'):g} messages total"
        )
        lines.append(
            f"  oracle: {_metric(digest, 'churn.oracle.violations'):g} "
            f"violations in {_metric(digest, 'churn.oracle.checked'):g} "
            f"spot checks"
        )
        lines.append(
            f"  still active at cutoff: "
            f"{_metric(digest, 'churn.active.groups'):g} groups, "
            f"{_metric(digest, 'churn.active.sessions'):g} sessions, "
            f"{_metric(digest, 'churn.active.hosts'):g} hosts"
        )
        lines.append("")
    return "\n".join(lines)


def write_stream_prefix(scenario_name: str, seed: int, target,
                        limit: int = 256,
                        channels: Optional[int] = None) -> int:
    """Write the first ``limit`` events of the scenario's global stream
    as JSONL (the CI golden-prefix file); returns the count written."""
    scenario = get_scenario(scenario_name)
    setup = scenario_setup(scenario, seed)
    schedule = build_schedule(scenario, tuple(setup.candidates), seed,
                              channels)
    return write_stream_jsonl(schedule.events(limit=limit), target)
