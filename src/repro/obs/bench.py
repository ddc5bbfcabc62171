"""Persisted benchmark baselines with regression gating.

The paper's headline claims are quantitative, so a perf regression in
the hot paths (Dijkstra, ``Link.transmit``, the static drivers, the
engine loop) must not land silently.  This module runs a small suite of
**guarded micro-benchmarks** headlessly, records wall-clock percentiles
(p50/p90/p99 over individually timed iterations) plus a set of
deterministic protocol metrics from a fixed seeded sweep, writes the
whole thing to a canonical ``BENCH_<rev>.json``, and diffs it against a
committed baseline with per-metric tolerance thresholds — nonzero exit
on regression, which is what CI gates on.

Machine-speed normalization: absolute wall clock is meaningless across
laptops and CI runners, so every benchmark's p50 is also stored as a
ratio against a fixed pure-python ``calibration`` busy loop measured in
the same process.  The regression gate compares *normalized* p50s, so
a uniformly slower machine cancels out and only relative slowdowns of
the guarded paths trip it.

Protocol metrics (tree cost, delay, convergence rounds, control
overhead) come from a fully seeded sweep at a pinned run budget — they
are deterministic, so the gate holds them to a near-exact tolerance: a
drift there is a behaviour change, not noise.

The module is import-light (every ``repro`` import is function-local)
so :mod:`repro.obs` stays a leaf package.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.registry import Histogram, MetricsRegistry

#: Baseline file schema version.
BASELINE_FORMAT = 1

#: Default relative budget on a guarded benchmark's normalized p50
#: before the gate trips (the CI job fails on >20% regressions).
DEFAULT_TOLERANCE = 0.20

#: Deterministic protocol metrics must match to this relative epsilon.
PROTOCOL_TOLERANCE = 1e-6

#: Timed iterations per micro-benchmark (CI reduces via --iterations).
DEFAULT_ITERATIONS = 30

#: Monte-Carlo budget of the protocol-metric sweep.  Pinned: baselines
#: recorded at different budgets are not comparable, so ``--check``
#: always reruns at the stored budget.
BENCH_SWEEP_RUNS = 3

#: Seed of the protocol-metric sweep (the paper's publication date).
BENCH_SWEEP_SEED = 20010827


@dataclass(frozen=True)
class BenchSpec:
    """One guarded micro-benchmark.

    ``build()`` does the un-timed setup and returns the zero-argument
    callable that gets timed; per-spec ``tolerance`` overrides the
    default regression budget.  Targets are resolved *inside* the
    timed callable (module attribute lookups, not ``from``-imports
    captured at definition time) so tests can monkeypatch a hot path
    and watch the gate trip.
    """

    name: str
    build: Callable[[], Callable[[], object]]
    tolerance: float = DEFAULT_TOLERANCE


# ----------------------------------------------------------------------
# The guarded hot paths
# ----------------------------------------------------------------------
def _build_calibration() -> Callable[[], object]:
    """Fixed pure-python busy work: the machine-speed yardstick."""

    def run() -> int:
        total = 0
        for i in range(200_000):
            total += i
        return total

    return run


def _build_engine_events() -> Callable[[], object]:
    """5k chained events through the discrete-event engine."""
    from repro.netsim import engine

    def run() -> int:
        simulator = engine.Simulator()
        remaining = [5_000]

        def tick() -> None:
            remaining[0] -= 1
            if remaining[0] > 0:
                simulator.schedule(1.0, tick)

        simulator.schedule(1.0, tick)
        simulator.run()
        return simulator.events_executed

    return run


def _build_dijkstra() -> Callable[[], object]:
    """Single-source shortest paths on the paper's 50-node topology."""
    from repro.routing import dijkstra
    from repro.topology.random_graphs import random_topology_50

    topology = random_topology_50(seed=3)

    def run() -> object:
        return dijkstra.shortest_paths_from(topology, 0)

    return run


def _build_routing_tables() -> Callable[[], object]:
    """All 36 forwarding tables on the ISP topology."""
    from repro.routing import tables
    from repro.topology.isp import isp_topology

    topology = isp_topology(seed=3)

    def run() -> object:
        routing = tables.UnicastRouting(topology)
        for node in topology.nodes:
            routing.table(node)
        return routing

    return run


def _build_hbh_converge() -> Callable[[], object]:
    """One converged 8-receiver HBH tree plus a data distribution —
    the unit of every Monte-Carlo cell."""
    from repro.core import static_driver
    from repro.routing.tables import UnicastRouting
    from repro.topology.isp import isp_topology

    topology = isp_topology(seed=3)
    routing = UnicastRouting(topology)
    receivers = (20, 22, 25, 27, 29, 31, 33, 35)

    def run() -> object:
        driver = static_driver.StaticHbh(topology, 18, routing=routing)
        for receiver in receivers:
            driver.add_receiver(receiver)
            driver.converge(max_rounds=80)
        return driver.distribute_data()

    return run


def _build_routing_incremental() -> Callable[[], object]:
    """One link flap repaired across 200 warm origin trees.

    Builds every table once outside the timed loop; the measured unit
    is the incremental substrate's whole delta path (cost listeners,
    per-edge coalescing, subtree detach + restricted Dijkstra repair,
    canonical predecessor fix-up) for a down-then-restore of one link,
    eagerly applied to all 200 origins via ``refresh_all``.  A
    regression to wholesale invalidation re-runs 200 full Dijkstras per
    flap and blows the budget by an order of magnitude — this is the
    ratchet on the incremental-routing rewrite.
    """
    from repro.netsim.network import Network
    from repro.routing.tables import UnicastRouting
    from repro.topology.random_graphs import random_topology

    topology = random_topology(200, 600, seed=7)
    routing = UnicastRouting(topology)
    for node in topology.nodes:
        routing.table(node)
    a, b = next(topology.undirected_edges())
    cost_ab = topology.cost(a, b)
    cost_ba = topology.cost(b, a)
    failed = Network.FAILED_LINK_COST

    def run() -> int:
        topology.set_cost(a, b, failed)
        topology.set_cost(b, a, failed)
        changed = routing.refresh_all()
        topology.set_cost(a, b, cost_ab)
        topology.set_cost(b, a, cost_ba)
        return changed + routing.refresh_all()

    return run


def _build_link_transmit() -> Callable[[], object]:
    """1k packets pumped through ``Link.transmit`` + engine delivery."""
    from repro.netsim.network import Network
    from repro.netsim.packet import Packet
    from repro.topology.paper import fig2_topology

    def run() -> int:
        network = Network(fig2_topology())
        a, b = network.links()[0].endpoints()
        link = network.link_between(a, b)
        packet = Packet(src=network.address_of(a),
                        dst=network.address_of(b), payload=None)
        for _ in range(1_000):
            link.transmit(a, packet)
        return network.simulator.run()

    return run


def _build_workload_generate() -> Callable[[], object]:
    """10k churn events drawn lazily from a 1k-channel Zipf model —
    the stream-generation side of the churn engine, no protocol work.
    Guards the lazy slot machinery (per-slot RNGs, thinning, leave
    buckets and the current slot's leave heap) against accidental
    materialization: the cap is reached early in the first slot."""
    from repro.workload import ChurnModel, ChurnSchedule, SessionDuration

    model = ChurnModel(
        channels=1_000, base_rate=400.0,
        session=SessionDuration(scale=120.0, cap=600.0),
    )
    sites = tuple(f"site{i}" for i in range(16))

    def run() -> int:
        schedule = ChurnSchedule(model, sites, seed=11)
        count = 0
        for _ in schedule.events(limit=10_000):
            count += 1
        return count

    return run


def _build_flows_record() -> Callable[[], object]:
    """50 flow-telemetry digests of a converged 8-receiver HBH
    distribution — the per-measurement cost of the flows plane
    (path reconstruction, per-receiver SLO metrics, utilization rows)
    with the registry attached, as every flows cell runs it."""
    from repro.core import static_driver
    from repro.obs.flow import FlowTelemetry
    from repro.routing.tables import UnicastRouting
    from repro.topology.isp import isp_topology

    topology = isp_topology(seed=3)
    routing = UnicastRouting(topology)
    driver = static_driver.StaticHbh(topology, 18, routing=routing)
    for receiver in (20, 22, 25, 27, 29, 31, 33, 35):
        driver.add_receiver(receiver)
        driver.converge(max_rounds=80)
    distribution = driver.distribute_data()

    def run() -> int:
        flow = FlowTelemetry(enabled=True, registry=MetricsRegistry())
        for _ in range(50):
            flow.observe_distribution("hbh", "<18,G>", distribution,
                                      routing=routing, source=18)
        return len(flow)

    return run


#: Every guarded micro-benchmark, calibration first.
MICRO_BENCHMARKS: Tuple[BenchSpec, ...] = (
    BenchSpec("calibration", _build_calibration),
    BenchSpec("engine.events", _build_engine_events),
    BenchSpec("routing.dijkstra", _build_dijkstra),
    BenchSpec("routing.tables", _build_routing_tables),
    # The incremental-repair ratchet: a link flap repaired across 200
    # warm origin trees.  Explicit tolerance: repair work is sparse and
    # pointer-chasing (dict/heap bound), so its normalized ratio swings
    # more with allocator state than the dense Dijkstra benches.
    BenchSpec("routing.incremental", _build_routing_incremental,
              tolerance=0.30),
    # Allocation-bound, so its calibration-normalized ratio swings with
    # cache/frequency state more than the pure-compute benches.  The
    # committed baseline ratchets the walk-plan rewrite (~2.2x: norm
    # 2.05 -> 0.95); budget sized to the post-rewrite cross-invocation
    # spread (0.91-0.98 on an idle box), tightened from the pre-rewrite
    # 0.35 now that the noisier allocation paths are gone.
    BenchSpec("hbh.converge", _build_hbh_converge, tolerance=0.30),
    # Ratcheted ~7x by the batched same-link drain (norm 3.63 -> 0.52).
    # The remaining cost is engine delivery with a long scheduler-noise
    # tail (p99 ~5x p50), so the budget is wider than the default even
    # though the baseline itself enforces the rewrite.
    BenchSpec("link.transmit", _build_link_transmit, tolerance=0.30),
    # Pure stream generation: RNG draws + heap spill, no protocol work.
    # Wider budget for the same reason as the other allocation-bound
    # benches — the timed unit is mostly object construction.
    BenchSpec("workload.generate", _build_workload_generate,
              tolerance=0.30),
    # The flows-plane measurement unit: record construction + registry
    # observes dominate, so it is allocation-bound like the benches
    # above and carries the same widened budget.
    BenchSpec("flows.record", _build_flows_record, tolerance=0.30),
)


def bench_names() -> List[str]:
    """The guarded benchmark names, suite order."""
    return [spec.name for spec in MICRO_BENCHMARKS]


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def _time_spec(spec: BenchSpec, iterations: int,
               registry: Optional[MetricsRegistry]) -> Dict[str, float]:
    """Warm up, then time ``iterations`` runs of one spec."""
    timed = spec.build()
    timed()  # warm-up, untimed
    histogram = Histogram()
    for _ in range(iterations):
        started = time.perf_counter()
        timed()
        histogram.observe(time.perf_counter() - started)
    if registry is not None:
        registry.histogram("bench.seconds", bench=spec.name).extend(
            histogram.values()
        )
    return {
        "n": float(histogram.count),
        "mean": histogram.mean,
        "min": histogram.min,
        "p50": histogram.percentile(50),
        "p90": histogram.percentile(90),
        "p95": histogram.percentile(95),
        "p99": histogram.percentile(99),
    }


def run_micro(
    iterations: int = DEFAULT_ITERATIONS,
    names: Optional[Sequence[str]] = None,
    registry: Optional[MetricsRegistry] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Dict[str, float]]:
    """Time every selected micro-benchmark; return per-bench percentiles.

    Each spec's callable runs once un-timed (warm-up: imports, caches)
    and then ``iterations`` timed times; per-iteration wall clock goes
    through an obs :class:`Histogram`, so the p50/p90/p99 here are the
    same nearest-rank percentiles every other instrument reports.
    ``registry`` (optional) additionally records each sample as
    ``bench.seconds{bench=<name>}``.

    Normalization is *interleaved*: the calibration loop is re-measured
    after every benchmark, and each benchmark's ``normalized_p50``
    divides by the fastest calibration sample from its own time window
    (the min of the passes immediately before and after it).  Two
    reasons: scheduler noise is one-sided, so best-of-N is the stable
    machine-speed estimate; and CPU frequency drifts over a suite run
    (ramp-up, thermal throttling), so a single calibration taken at the
    start would skew every later ratio.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    selected = [spec for spec in MICRO_BENCHMARKS
                if names is None or spec.name in set(names)]
    if names is not None:
        known = {spec.name for spec in MICRO_BENCHMARKS}
        unknown = set(names) - known
        if unknown:
            raise ValueError(
                f"unknown benchmark(s) {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
    calibration_spec = MICRO_BENCHMARKS[0]
    assert calibration_spec.name == "calibration"
    results: Dict[str, Dict[str, float]] = {}
    if progress is not None:
        progress("calibration")
    window = _time_spec(
        calibration_spec, iterations,
        registry if "calibration" in {s.name for s in selected} else None,
    )
    if any(spec.name == "calibration" for spec in selected):
        results["calibration"] = dict(window)
        results["calibration"]["normalized_p50"] = (
            window["p50"] / window["min"] if window["min"] > 0 else 0.0
        )
    for spec in selected:
        if spec.name == "calibration":
            continue
        if progress is not None:
            progress(spec.name)
        stats = _time_spec(spec, iterations, registry)
        after = _time_spec(calibration_spec, iterations, None)
        yardstick = min(window["min"], after["min"])
        stats["normalized_p50"] = (
            stats["p50"] / yardstick if yardstick > 0 else 0.0
        )
        results[spec.name] = stats
        window = after
    return results


def collect_protocol_metrics(
    runs: int = BENCH_SWEEP_RUNS,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Dict[str, float]]:
    """Key protocol metrics from a fully seeded sweep (deterministic).

    One ISP-topology sweep at a single group size, identical seeds every
    invocation: tree cost, delay, convergence rounds and control
    overhead per protocol.  Any drift against a baseline recorded at
    the same ``runs`` budget is a behaviour change.
    """
    from repro.experiments.config import SweepConfig
    from repro.experiments.harness import run_sweep

    if progress is not None:
        progress("protocol sweep")
    config = SweepConfig(name="bench-protocols", topology="isp",
                         group_sizes=(8,), runs=runs,
                         seed=BENCH_SWEEP_SEED)
    registry = MetricsRegistry()
    run_sweep(config, metrics=registry)
    channels: Dict[str, str] = {}
    for _name, labels, _instr in registry.collect("tree.cost.copies"):
        channels[labels["protocol"]] = labels["channel"]
    metrics: Dict[str, Dict[str, float]] = {}
    for protocol in config.protocols:
        labels = {"protocol": protocol, "channel": channels[protocol]}
        metrics[protocol] = {
            "tree_cost_copies_mean": registry.histogram(
                "tree.cost.copies", **labels).mean,
            "delay_mean": registry.histogram("delay.mean", **labels).mean,
            "join_converge_rounds_mean": registry.histogram(
                "join.converge.rounds", **labels).mean,
            "control_messages_total": registry.counter(
                "control.messages", **labels).value,
        }
    return metrics


# ----------------------------------------------------------------------
# Baseline files
# ----------------------------------------------------------------------
def git_revision() -> str:
    """The repo's short revision, or ``worktree`` when unavailable."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "worktree"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "worktree"


def default_output_path(rev: Optional[str] = None) -> str:
    """The canonical artifact name: ``BENCH_<rev>.json``."""
    return f"BENCH_{rev or git_revision()}.json"


def collect_baseline(
    iterations: int = DEFAULT_ITERATIONS,
    sweep_runs: int = BENCH_SWEEP_RUNS,
    registry: Optional[MetricsRegistry] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Run the full suite and assemble the baseline document."""
    import platform

    micro = run_micro(iterations=iterations, registry=registry,
                      progress=progress)
    protocols = collect_protocol_metrics(runs=sweep_runs,
                                         progress=progress)
    return {
        "format": BASELINE_FORMAT,
        "rev": git_revision(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "iterations": iterations,
        "sweep_runs": sweep_runs,
        "micro": micro,
        "protocols": protocols,
    }


def write_baseline(path: str, baseline: Dict[str, object]) -> None:
    """Write a baseline document as canonical (sorted, indented) JSON."""
    with open(path, "w") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_baseline(path: str) -> Dict[str, object]:
    """Read a baseline document back (format-checked)."""
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or data.get("format") != BASELINE_FORMAT:
        raise ValueError(
            f"{path} is not a format-{BASELINE_FORMAT} bench baseline "
            f"(got format {data.get('format') if isinstance(data, dict) else None!r})"
        )
    return data


# ----------------------------------------------------------------------
# Regression gating
# ----------------------------------------------------------------------
@dataclass
class Comparison:
    """The outcome of diffing a fresh run against a baseline."""

    regressions: List[str]
    improvements: List[str]
    notes: List[str]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines: List[str] = []
        for text in self.regressions:
            lines.append(f"REGRESSION  {text}")
        for text in self.improvements:
            lines.append(f"improvement {text}")
        for text in self.notes:
            lines.append(f"note        {text}")
        lines.append(
            f"{len(self.regressions)} regression(s), "
            f"{len(self.improvements)} improvement(s)"
        )
        return "\n".join(lines)


def _tolerance_for(name: str) -> float:
    for spec in MICRO_BENCHMARKS:
        if spec.name == name:
            return spec.tolerance
    return DEFAULT_TOLERANCE


def micro_regression_names(comparison: Comparison) -> List[str]:
    """The micro-benchmark names a comparison flagged as regressed."""
    known = set(bench_names())
    names = []
    for entry in comparison.regressions:
        if entry.startswith("micro "):
            name = entry[len("micro "):].split(":", 1)[0].strip()
            if name in known:
                names.append(name)
    return names


def compare_baselines(
    current: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: Optional[float] = None,
) -> Comparison:
    """Diff ``current`` against ``baseline`` with per-metric budgets.

    Micro-benchmarks compare **normalized** p50 (ratio to the
    calibration loop) so machine speed cancels; ``tolerance`` (or each
    spec's own) bounds the allowed relative slowdown.  The
    ``calibration`` entry itself is never gated — it *is* the yardstick.
    Protocol metrics are deterministic and compare near-exactly, but
    only when both documents used the same sweep budget.
    """
    result = Comparison(regressions=[], improvements=[], notes=[])
    base_micro = baseline.get("micro")
    cur_micro = current.get("micro")
    assert isinstance(base_micro, dict) and isinstance(cur_micro, dict)
    for name in sorted(base_micro):
        if name == "calibration":
            continue
        if name not in cur_micro:
            result.notes.append(f"micro {name}: not measured in this run")
            continue
        budget = tolerance if tolerance is not None else _tolerance_for(name)
        base_p50 = float(base_micro[name].get("normalized_p50", 0.0))
        cur_p50 = float(cur_micro[name].get("normalized_p50", 0.0))
        if base_p50 <= 0:
            result.notes.append(f"micro {name}: baseline has no "
                                f"normalized p50; skipped")
            continue
        ratio = cur_p50 / base_p50
        detail = (f"micro {name}: normalized p50 {base_p50:.4f} -> "
                  f"{cur_p50:.4f} ({ratio:+.1%} of baseline, "
                  f"budget {budget:.0%})".replace("+", ""))
        if ratio > 1.0 + budget:
            result.regressions.append(detail)
        elif ratio < 1.0 - budget:
            result.improvements.append(detail)
    for name in sorted(cur_micro):
        if name not in base_micro:
            result.notes.append(f"micro {name}: new benchmark, no baseline")

    base_protocols = baseline.get("protocols")
    cur_protocols = current.get("protocols")
    if baseline.get("sweep_runs") != current.get("sweep_runs"):
        result.notes.append(
            f"protocol metrics skipped: sweep budgets differ "
            f"({baseline.get('sweep_runs')} vs {current.get('sweep_runs')})"
        )
        return result
    assert isinstance(base_protocols, dict) and isinstance(cur_protocols, dict)
    for protocol in sorted(base_protocols):
        if protocol not in cur_protocols:
            result.notes.append(f"protocol {protocol}: not measured")
            continue
        for metric, base_value in sorted(base_protocols[protocol].items()):
            cur_value = cur_protocols[protocol].get(metric)
            if cur_value is None:
                result.notes.append(
                    f"protocol {protocol}.{metric}: not measured")
                continue
            scale = max(abs(float(base_value)), 1e-12)
            if abs(float(cur_value) - float(base_value)) / scale \
                    > PROTOCOL_TOLERANCE:
                result.regressions.append(
                    f"protocol {protocol}.{metric}: {base_value} -> "
                    f"{cur_value} (deterministic metric drifted)"
                )
    return result


# ----------------------------------------------------------------------
# Trend tracking and job summaries
# ----------------------------------------------------------------------
def append_trend(path: str, current: Dict[str, object],
                 branch: Optional[str] = None) -> Dict[str, object]:
    """Append one run's normalized p50s to a JSONL trend file.

    The file is an append-only, per-branch perf history (CI persists it
    across pushes): one compact record per suite run, newest last, so a
    gradual drift that stays inside each individual run's tolerance is
    still visible across the series.  Returns the appended record.
    """
    import datetime

    micro = current.get("micro")
    assert isinstance(micro, dict)
    record: Dict[str, object] = {
        "rev": current.get("rev"),
        "when": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "iterations": current.get("iterations"),
        "normalized_p50": {
            name: stats.get("normalized_p50")
            for name, stats in sorted(micro.items())
        },
    }
    if branch:
        record["branch"] = branch
    with open(path, "a") as handle:
        json.dump(record, handle, sort_keys=True)
        handle.write("\n")
    return record


def render_summary_markdown(
    current: Dict[str, object],
    baseline: Optional[Dict[str, object]] = None,
    comparison: Optional[Comparison] = None,
) -> str:
    """A GitHub-flavored markdown table of this run vs the baseline.

    Written to ``$GITHUB_STEP_SUMMARY`` by the CI bench job: one row
    per guarded benchmark with the normalized p50 delta against the
    committed baseline and whether it stayed inside its budget.
    """
    micro = current.get("micro")
    assert isinstance(micro, dict)
    base_micro = baseline.get("micro") if baseline else None
    lines = [
        "### Benchmark deltas (normalized p50, lower is faster)",
        "",
        "| benchmark | baseline | current | delta | budget | status |",
        "|---|---:|---:|---:|---:|---|",
    ]
    for name in bench_names():
        if name not in micro:
            continue
        cur = float(micro[name].get("normalized_p50", 0.0))
        if name == "calibration":
            lines.append(f"| {name} | — | {cur:.3f} | — | — | yardstick |")
            continue
        budget = _tolerance_for(name)
        base = None
        if isinstance(base_micro, dict) and name in base_micro:
            base = float(base_micro[name].get("normalized_p50", 0.0))
        if not base:
            lines.append(f"| {name} | — | {cur:.3f} | — "
                         f"| {budget:.0%} | no baseline |")
            continue
        delta = cur / base - 1.0
        status = ("regression" if delta > budget
                  else "improvement" if delta < -budget else "ok")
        lines.append(f"| {name} | {base:.3f} | {cur:.3f} | {delta:+.1%} "
                     f"| {budget:.0%} | {status} |")
    if comparison is not None:
        lines.append("")
        lines.append(
            f"**{len(comparison.regressions)} regression(s), "
            f"{len(comparison.improvements)} improvement(s)** vs rev "
            f"`{baseline.get('rev') if baseline else '?'}`"
        )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# CLI driver
# ----------------------------------------------------------------------
def run_bench(
    out: Optional[str] = None,
    check: Optional[str] = None,
    iterations: Optional[int] = None,
    tolerance: Optional[float] = None,
    quiet: bool = False,
    echo: Optional[Callable[[str], None]] = None,
    trend: Optional[str] = None,
    trend_branch: Optional[str] = None,
    summary: Optional[str] = None,
) -> int:
    """The ``experiments bench`` implementation.

    Runs the suite, writes ``out`` (default ``BENCH_<rev>.json``), and
    — when ``check`` names a committed baseline — diffs against it and
    returns nonzero on any regression.  ``--check`` reruns the protocol
    sweep at the *baseline's* stored budget so deterministic metrics
    stay comparable.  ``trend`` appends the run's normalized p50s to a
    JSONL history (tagged ``trend_branch`` when given); ``summary``
    writes a markdown delta table (the CI job appends it to
    ``$GITHUB_STEP_SUMMARY``).
    """
    import sys

    emit: Callable[[str], None] = echo if echo is not None else print
    if iterations is None:
        iterations = DEFAULT_ITERATIONS

    def progress(name: str) -> None:
        if not quiet:
            print(f"  bench: {name}", file=sys.stderr)

    sweep_runs = BENCH_SWEEP_RUNS
    baseline_doc: Optional[Dict[str, object]] = None
    if check:
        baseline_doc = load_baseline(check)
        stored = baseline_doc.get("sweep_runs")
        if isinstance(stored, int) and stored >= 1:
            sweep_runs = stored
    current = collect_baseline(iterations=iterations,
                               sweep_runs=sweep_runs, progress=progress)
    out_path = out or default_output_path(str(current["rev"]))
    write_baseline(out_path, current)
    micro = current["micro"]
    assert isinstance(micro, dict)
    for name in bench_names():
        stats = micro[name]
        emit(f"{name:<18} p50 {stats['p50'] * 1e3:9.3f} ms   "
             f"p90 {stats['p90'] * 1e3:9.3f} ms   "
             f"p95 {stats.get('p95', 0.0) * 1e3:9.3f} ms   "
             f"p99 {stats['p99'] * 1e3:9.3f} ms   "
             f"x{stats['normalized_p50']:.2f} of calibration")
    emit(f"wrote {out_path}")
    if baseline_doc is None:
        if trend:
            append_trend(trend, current, branch=trend_branch)
            emit(f"appended trend record to {trend}")
        if summary:
            with open(summary, "w") as handle:
                handle.write(render_summary_markdown(current))
            emit(f"wrote summary to {summary}")
        return 0
    comparison = compare_baselines(current, baseline_doc,
                                   tolerance=tolerance)
    # Transient machine load can inflate a p50 past its budget; a real
    # code regression reproduces.  Re-measure only the offenders (with
    # a fresh calibration) and keep the verdict only if it persists.
    suspects = micro_regression_names(comparison)
    if suspects:
        emit(f"retrying {len(suspects)} regressed benchmark(s): "
             f"{', '.join(suspects)}")
        remeasured = run_micro(iterations=iterations,
                               names=["calibration", *suspects],
                               progress=progress)
        for name in suspects:
            micro[name] = remeasured[name]
        write_baseline(out_path, current)
        comparison = compare_baselines(current, baseline_doc,
                                       tolerance=tolerance)
    emit(f"-- regression gate vs {check} "
         f"(baseline rev {baseline_doc.get('rev')}) --")
    emit(comparison.render())
    if trend:
        append_trend(trend, current, branch=trend_branch)
        emit(f"appended trend record to {trend}")
    if summary:
        with open(summary, "w") as handle:
            handle.write(render_summary_markdown(current, baseline_doc,
                                                 comparison))
        emit(f"wrote summary to {summary}")
    return 0 if comparison.ok else 1
