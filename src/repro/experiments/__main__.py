"""Command-line entry point: regenerate the paper's figures.

Examples::

    python -m repro.experiments fig7a --runs 100
    python -m repro.experiments fig8b --runs 50 --csv fig8b.csv
    python -m repro.experiments all --runs 100
    python -m repro.experiments claims --runs 100
    python -m repro.experiments report --profile --runs 3
    python -m repro.experiments report --jobs 4 --live --metrics-port 9100
    python -m repro.experiments baseline --out BENCH_registry.json
    python -m repro.experiments bench --check BENCH_baseline.json

Each target is a subcommand that declares only the flags it reads
(``python -m repro.experiments <target> --help`` lists them); any
other flag exits 2 before anything runs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Tuple

from repro.experiments.claims import check_claims
from repro.experiments.figures import FIGURE_METRICS
from repro.experiments.harness import SweepResult
from repro.experiments.report import (
    render_ascii_plot,
    render_channel_metrics,
    render_ci_table,
    render_profile,
    render_table,
    to_csv,
)
from repro.obs.profiling import PROFILER
from repro.obs.registry import MetricsRegistry


def _progress_printer(quiet: bool):
    if quiet:
        return None

    def progress(group_size: int, _protocol: str, done: int, total: int):
        if done == total or done % max(1, total // 4) == 0:
            print(f"  n={group_size}: {done}/{total} runs", file=sys.stderr)

    return progress


def _write_timeline(events, path: str) -> None:
    """Archive timeline event dicts as JSONL (stderr count like
    ``--trace-out``)."""
    from repro.obs.timeline import write_events_jsonl

    count = write_events_jsonl(events, path)
    print(f"wrote {count} timeline events to {path}", file=sys.stderr)


def _write_flows(records, path: str) -> None:
    """Archive sampled flow-record dicts as JSONL (sorted keys, so the
    file is byte-identical across --jobs and PYTHONHASHSEED)."""
    from repro.obs.timeline import write_events_jsonl

    count = write_events_jsonl(records, path)
    print(f"wrote {count} flow records to {path}", file=sys.stderr)


def _exec_summary(result: SweepResult) -> None:
    """One stderr line on what the execution engine did (CI greps for
    the 'cache hits' text)."""
    if result.exec_stats is not None:
        print(f"exec: {result.exec_stats.describe()}", file=sys.stderr)


def _report(result: SweepResult, figure: str, csv_path: str = "") -> None:
    metric = FIGURE_METRICS[figure]
    print(render_table(result, metric))
    print()
    print(render_ci_table(result, metric))
    print()
    print(render_ascii_plot(result, metric))
    # Wall time varies run to run; stdout stays byte-reproducible.
    print(f"elapsed: {result.elapsed_seconds:.1f}s", file=sys.stderr)
    if csv_path:
        with open(csv_path, "w") as handle:
            handle.write(to_csv(result))
        print(f"wrote {csv_path}")


def _run_ablations(args, tracer, _flight, bus) -> int:
    from repro.experiments.ablations import (
        asymmetry_sweep,
        connectivity_sweep,
        rp_placement_sweep,
        unicast_cloud_sweep,
    )

    runs, jobs = args.runs, args.jobs
    print(f"== abl-asym: cost spread vs HBH/REUNITE ({runs} runs) ==")
    print(f"{'spread':>8} {'protocol':>9} {'copies':>8} {'delay':>8}")
    for point in asymmetry_sweep(runs=runs, tracer=tracer, jobs=jobs,
                                 bus=bus):
        print(f"{point.parameter:>8.2f} {point.protocol:>9} "
              f"{point.mean_cost_copies:>8.2f} {point.mean_delay:>8.2f}")

    print(f"\n== abl-unicast: unicast-only fraction vs HBH ({runs} runs) ==")
    print(f"{'fraction':>8} {'copies':>8} {'delay':>8}")
    for point in unicast_cloud_sweep(runs=runs, tracer=tracer, jobs=jobs,
                                     bus=bus):
        print(f"{point.parameter:>8.2f} {point.mean_cost_copies:>8.2f} "
              f"{point.mean_delay:>8.2f}")

    print(f"\n== abl-rp: PIM-SM RP placement ({runs} runs) ==")
    print(f"{'strategy':>14} {'copies':>8} {'delay':>8}")
    for strategy, (cost, delay) in rp_placement_sweep(
            runs=runs, tracer=tracer, jobs=jobs, bus=bus).items():
        print(f"{strategy:>14} {cost:>8.2f} {delay:>8.2f}")

    print(f"\n== abl-conn: Waxman density vs HBH/REUNITE "
          f"({max(4, runs // 2)} runs) ==")
    print(f"{'alpha':>8} {'protocol':>9} {'copies':>8} {'delay':>8}")
    for point in connectivity_sweep(runs=max(4, runs // 2), tracer=tracer,
                                    jobs=jobs, bus=bus):
        print(f"{point.parameter:>8.2f} {point.protocol:>9} "
              f"{point.mean_cost_copies:>8.2f} {point.mean_delay:>8.2f}")
    return 0


def _run_report(args, tracer, _flight, bus) -> int:
    """A fig7-style observability run: per-channel metric summary plus
    (optionally) the wall-clock timer tree."""
    from repro.experiments.figures import figure_config
    from repro.experiments.harness import run_sweep

    if args.profile:
        PROFILER.reset()
        PROFILER.enable()
    try:
        config = figure_config(args.figure, runs=args.runs)
        registry = MetricsRegistry()
        result = run_sweep(config, progress=_progress_printer(args.quiet),
                           metrics=registry, tracer=tracer, jobs=args.jobs,
                           cache_dir=args.cache_dir, resume=args.resume,
                           bus=bus)
    finally:
        if args.profile:
            PROFILER.disable()
    _exec_summary(result)
    print(f"== per-channel metrics ({config.name}, "
          f"{config.runs} runs/point) ==")
    print(render_channel_metrics(registry))
    print(f"elapsed: {result.elapsed_seconds:.1f}s", file=sys.stderr)
    if args.profile:
        print("\n== profile (wall-clock timer tree) ==")
        print(render_profile())
    return 0


def _measure_engine_throughput(registry: MetricsRegistry,
                               events: int = 50_000) -> float:
    """Engine events/second on a chained-event microload (the
    ``engine.events_per_sec`` baseline gauge)."""
    import time as _time

    from repro.netsim.engine import Simulator

    simulator = Simulator()
    remaining = [events]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            simulator.schedule(1.0, tick)

    simulator.schedule(1.0, tick)
    started = _time.perf_counter()
    executed = simulator.run()
    elapsed = _time.perf_counter() - started
    rate = executed / elapsed if elapsed > 0 else 0.0
    registry.set_gauge("engine.events_per_sec", rate)
    return rate


def _run_baseline(args, tracer, _flight, bus) -> int:
    """Persist a registry snapshot baseline: tree cost, join latency
    and engine throughput dumped from the obs registry.  (The perf
    regression gate is the separate ``bench`` target.)"""
    import json
    import platform

    from repro.experiments.figures import figure_config
    from repro.experiments.harness import run_sweep

    registry = MetricsRegistry()
    config = figure_config("fig7a", runs=args.runs)
    result = run_sweep(config, progress=_progress_printer(args.quiet),
                       metrics=registry, tracer=tracer, jobs=args.jobs,
                       cache_dir=args.cache_dir, resume=args.resume, bus=bus)
    _exec_summary(result)
    events_per_sec = _measure_engine_throughput(registry)
    channels = {
        labels["protocol"]: labels["channel"]
        for _, labels, _instrument in registry.collect("tree.cost.copies")
    }
    protocols = {}
    for protocol in config.protocols:
        labels = {"protocol": protocol, "channel": channels[protocol]}
        protocols[protocol] = {
            "tree_cost_copies_mean": registry.histogram(
                "tree.cost.copies", **labels).mean,
            "delay_mean": registry.histogram("delay.mean", **labels).mean,
            "join_converge_rounds_mean": registry.histogram(
                "join.converge.rounds", **labels).mean,
            "control_messages_total": registry.counter(
                "control.messages", **labels).value,
        }
    baseline = {
        "figure": config.name,
        "runs_per_point": config.runs,
        "python": platform.python_version(),
        "engine_events_per_sec": events_per_sec,
        "protocols": protocols,
        "registry": registry.snapshot(),
    }
    with open(args.out, "w") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
    print(f"wrote {args.out} (engine {events_per_sec:,.0f} events/s)")
    return 0


def _run_bench(args, _tracer, _flight, _bus) -> int:
    from repro.obs.bench import run_bench

    return run_bench(
        out=args.out, check=args.check, iterations=args.iterations,
        tolerance=args.tolerance, quiet=args.quiet, trend=args.trend,
        trend_branch=args.trend_branch, summary=args.summary,
    )


def _run_explain(args, tracer, flight, _bus) -> int:
    from repro.experiments.explain import run_explain

    text, code = run_explain(
        scenario=args.scenario, protocol=args.protocols[0],
        query=args.query, seed=args.seed, tracer=tracer, flight=flight,
    )
    print(text, end="")
    return code


def _run_faults(args, tracer, flight, bus) -> int:
    from repro.experiments.faults import (
        render_result,
        run_scenario,
        run_scenarios,
        scenario_timeline,
    )

    if args.scenario == "all":
        payloads = run_scenarios(seed=args.seed, jobs=args.jobs, bus=bus,
                                 timeline=bool(args.timeline_out),
                                 flows=bool(args.flows_out),
                                 flow_sample=args.flow_sample)
        for payload in payloads:
            print(payload["text"])
            print()
        if args.timeline_out:
            _write_timeline(
                (dict(event, scenario=payload["scenario"])
                 for payload in payloads
                 for event in payload["timeline"] or ()),
                args.timeline_out,
            )
        if args.flows_out:
            _write_flows(
                [dict(record, scenario=payload["scenario"])
                 for payload in payloads
                 for record in payload["flows"] or ()],
                args.flows_out,
            )
        failures = sum(1 for p in payloads if not p["recovered"])
        print(f"{len(payloads) - failures}/{len(payloads)} scenarios "
              f"recovered")
        return 0 if failures == 0 else 1
    timeline = registry = flow = None
    if args.timeline_out:
        registry = MetricsRegistry()
        timeline = scenario_timeline(registry)
    if args.flows_out:
        from repro.obs.flow import FlowTelemetry

        # run_scenario adopts its own registry when flow.registry
        # is None, so the timeline-less path needs no registry here.
        flow = FlowTelemetry(enabled=True, sample_every=args.flow_sample,
                             registry=registry, seed=args.seed)
    result, registry = run_scenario(args.scenario, seed=args.seed,
                                    registry=registry, tracer=tracer,
                                    flight=flight, timeline=timeline,
                                    flow=flow)
    print(render_result(result, registry))
    if timeline is not None:
        _write_timeline(timeline.event_dicts(), args.timeline_out)
    if flow is not None:
        _write_flows(flow.record_dicts(), args.flows_out)
    return 0 if result.recovered else 1


def _save_churn(args, payloads: List[dict], what: str) -> None:
    from pathlib import Path

    from repro.experiments.churn import archive_text

    Path(args.save).write_text(archive_text(payloads, args.scenario,
                                            args.seed))
    print(f"archived {what} run to {args.save}", file=sys.stderr)


def _run_churn(args, _tracer, _flight, bus) -> int:
    from repro.experiments.churn import (
        render_report,
        run_churn,
        write_stream_prefix,
    )

    if args.stream_out:
        count = write_stream_prefix(args.scenario, args.seed,
                                    args.stream_out, limit=args.stream_limit,
                                    channels=args.channels)
        print(f"wrote {count} stream events to {args.stream_out}",
              file=sys.stderr)
    payloads = run_churn(args.scenario, protocols=args.protocols,
                         seed=args.seed, jobs=args.jobs, bus=bus,
                         events=args.events, channels=args.channels,
                         timeline=bool(args.timeline_out),
                         flows=bool(args.flows_out),
                         flow_sample=args.flow_sample)
    print(render_report(payloads, args.scenario, args.seed))
    if args.timeline_out:
        _write_timeline(
            [event for payload in payloads
             for event in payload["timeline"] or ()],
            args.timeline_out,
        )
    if args.flows_out:
        from repro.experiments.flows import merged_records

        _write_flows(merged_records(payloads), args.flows_out)
    if args.save:
        _save_churn(args, payloads, "churn")
    return 0


def _run_flows(args, _tracer, _flight, bus) -> int:
    from repro.experiments.flows import (
        merged_records,
        render_flow_report,
        run_flows,
    )

    payloads = run_flows(args.scenario, protocols=args.protocols,
                         seed=args.seed, jobs=args.jobs, bus=bus,
                         events=args.events, channels=args.channels,
                         flow_sample=args.flow_sample)
    print(render_flow_report(payloads, args.scenario, args.seed))
    if args.flows_out:
        _write_flows(merged_records(payloads), args.flows_out)
    if args.save:
        _save_churn(args, payloads, "flows")
    return 0


def _run_timeline(args, _tracer, _flight, _bus) -> int:
    from repro.experiments.faults import (
        FAST,
        SCENARIOS,
        run_scenario,
        scenario_timeline,
    )
    from repro.experiments.timeline_report import render_timeline

    names = sorted(SCENARIOS) if args.scenario == "all" else [args.scenario]
    archive: List[dict] = []
    recovered = True
    for name in names:
        registry = MetricsRegistry()
        timeline = scenario_timeline(registry)
        result, registry = run_scenario(name, seed=args.seed,
                                        registry=registry,
                                        timeline=timeline)
        recovered = recovered and result.recovered
        print(render_timeline(
            timeline.events(), result.convergence,
            bucket=FAST.tree_period,
            title=f"fault scenario {name!r} (seed {args.seed})",
            description=SCENARIOS[name].description,
        ))
        archive.extend(dict(event, scenario=name)
                       for event in timeline.event_dicts())
    if args.timeline_out:
        _write_timeline(archive, args.timeline_out)
    return 0 if recovered else 1


def _run_figure(args, tracer, _flight, bus) -> int:
    """Simulate a figure's sweep, or render an archived one."""
    from dataclasses import replace

    from repro.experiments.figures import figure_config
    from repro.experiments.harness import run_sweep
    from repro.experiments.storage import load_result, save_result

    if args.load:
        result = load_result(args.load)
    else:
        config = figure_config(args.target, runs=args.runs)
        if args.protocols:
            config = replace(config, protocols=args.protocols)
        result = run_sweep(config, progress=_progress_printer(args.quiet),
                           tracer=tracer, jobs=args.jobs,
                           cache_dir=args.cache_dir, resume=args.resume,
                           bus=bus, timeline=bool(args.timeline_out),
                           flows=bool(args.flows_out),
                           flow_sample=args.flow_sample)
        _exec_summary(result)
        if args.timeline_out:
            _write_timeline(result.timeline_events, args.timeline_out)
        if args.flows_out:
            _write_flows(result.flow_records, args.flows_out)
    if args.save:
        # Canonical form: archives diff clean across --jobs values.
        save_result(result, args.save, canonical=True)
        print(f"archived sweep to {args.save}", file=sys.stderr)
    _report(result, args.target, args.csv)
    return 0


def _run_claims(args, tracer, _flight, bus) -> int:
    """Every sweep the claims need ('all' also renders each figure);
    fig8 reuses fig7 data."""
    from repro.experiments.claims import run_claim_sweeps

    print("== running sweeps for fig7a/fig7b ==", file=sys.stderr)
    results: Dict[str, SweepResult] = run_claim_sweeps(
        runs=args.runs, progress=_progress_printer(args.quiet),
        tracer=tracer, jobs=args.jobs, cache_dir=args.cache_dir,
        resume=args.resume, bus=bus,
    )
    for figure in ("fig7a", "fig7b"):
        _exec_summary(results[figure])

    if args.target == "all":
        for figure in ("fig7a", "fig7b", "fig8a", "fig8b"):
            print(f"\n===== {figure} =====")
            _report(results[figure], figure)
    checks = check_claims(results)
    print("\n===== paper claims =====")
    failures = 0
    for check in checks:
        print(check)
        if not check.holds:
            failures += 1
    print(f"\n{len(checks) - failures}/{len(checks)} claims hold")
    return 0


def _count(text: str) -> int:
    """``type=`` of the count flags: a positive integer, or exit 2."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return int(text)


def _protocol_list(text: str) -> Tuple[str, ...]:
    """``type=`` of ``--protocols``: the comma-separated names."""
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    if not names:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated protocol names, got {text!r}")
    return names


def build_parser() -> argparse.ArgumentParser:
    """One subparser per target, composed of the parent parsers whose
    flags its handler reads; argparse rejects any other flag.  The
    handler is the default ``run(args, tracer, flight, bus)``.

    A flag whose default differs between targets gets a parent per
    target: children share a parent's actions, so ``set_defaults`` on
    one child would change the default of them all.
    """
    from repro.experiments import churn, faults
    from repro.experiments.explain import FIG2_SCENARIO
    from repro.obs.bench import DEFAULT_ITERATIONS

    def parent(*flag: str, **options) -> argparse.ArgumentParser:
        group = argparse.ArgumentParser(add_help=False)
        group.add_argument(*flag, **options)
        return group

    quiet = parent("--quiet", action="store_true",
                   help="suppress progress output")
    engine = parent(
        "--jobs", type=_count, default=1,
        help="worker processes for sweep execution (1 = serial in this "
             "process; results are byte-identical either way)",
    )
    engine.add_argument(
        "--live", action="store_true",
        help="stream live per-cell progress to stderr (done/total, ETA, "
             "cache-hit rate, in-flight cells) while a sweep runs",
    )
    engine.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve the in-flight merged metrics registry as OpenMetrics "
             "text at http://127.0.0.1:PORT/metrics while the sweep "
             "runs (0 picks an ephemeral port, printed to stderr)",
    )
    cache = parent(
        "--cache-dir", default=None,
        help="enable the content-addressed run cache and checkpoint "
             "journal under this directory (re-running a sweep after "
             "an unrelated change skips completed runs)",
    )
    cache.add_argument("--resume", action="store_true",
                       help="resume an interrupted sweep from its "
                            "checkpoint journal (requires --cache-dir)")
    trace = parent(
        "--trace-out", default="",
        help="archive the run's causal spans as JSONL here (sweeps "
             "trace run 0 of each point, 'explain' and 'faults' the "
             "whole run; not with --load or 'faults --scenario all')",
    )
    flight = parent("--flight-out", default="",
                    help="dump the per-channel flight recorder rings as "
                         "JSONL here (not with 'faults --scenario all')")
    timeline = parent(
        "--timeline-out", default="",
        help="archive the tree-dynamics timeline as JSONL here (sweeps "
             "run every cell under the timeline plane, 'faults' and "
             "'timeline' record the scenario's event stream); "
             "byte-identical across --jobs values and replays",
    )
    flows = parent(
        "--flows-out", default="",
        help="archive sampled data-plane flow records as JSONL here "
             "(every cell runs under the flow-telemetry plane when "
             "set); byte-identical across --jobs and PYTHONHASHSEED",
    )
    flows.add_argument(
        "--flow-sample", type=_count, default=1, metavar="N",
        help="deterministic 1-in-N flow sampling (default 1 = every "
             "flow; the subset is seed-derived, not load-dependent)",
    )
    save = parent("--save", default="",
                  help="archive the result as JSON here")
    workload = parent(
        "--events", type=_count, default=None,
        help="override the scenario's global event-stream limit "
             "(counted before channel sharding; 'flows' defaults to a "
             "20k-event prefix to stay interactive)",
    )
    workload.add_argument("--channels", type=_count, default=None,
                          help="override the scenario's channel count")
    figure = parent("--csv", default="", help="also write CSV here")
    figure.add_argument("--load", default="",
                        help="render a previously archived sweep instead "
                             "of re-simulating")

    def runs(default: Optional[int]) -> argparse.ArgumentParser:
        paper = "the paper's 500; scale10k 1"
        return parent("--runs", type=_count, default=default,
                      help=f"Monte-Carlo runs per point (default "
                           f"{default or paper})")

    def scenario(names: List[str], default: str) -> argparse.ArgumentParser:
        group = parent("--scenario", choices=names, default=default,
                       help="named scenario to replay (default "
                            "%(default)s)")
        group.add_argument("--seed", type=int, default=1,
                           help="schedule seed (same seed => "
                                "byte-identical replay)")
        return group

    def protocols(default: Optional[str] = None) -> argparse.ArgumentParser:
        return parent("--protocols", type=_protocol_list, default=default,
                      help="comma-separated protocol list overriding the "
                           "default (e.g. pim-sm,pim-ss,reunite,hbh,mospf "
                           "adds the mospf reference curve; 'explain' "
                           "renders the first)")

    def out(default: Optional[str]) -> argparse.ArgumentParser:
        rev = "BENCH_<git rev>.json"
        return parent("--out", default=default,
                      help=f"output path (default {default or rev})")

    parser = argparse.ArgumentParser(
        prog="hbh-experiments",
        description="Regenerate the evaluation figures of the HBH paper "
                    "(SIGCOMM 2001).",
    )
    # A target without these flags records and streams nothing.
    parser.set_defaults(trace_out="", flight_out="", live=False,
                        metrics_port=None)
    targets = parser.add_subparsers(dest="target", required=True,
                                    metavar="target")

    def target(name: str, run, summary: str,
               *parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        sub = targets.add_parser(name, help=summary, description=summary,
                                 parents=[quiet, *parents])
        sub.set_defaults(run=run)
        return sub

    sweep = (cache, engine, trace)
    for name, metric in FIGURE_METRICS.items():
        target(name, _run_figure, f"regenerate {name} ({metric} per group "
               "size)", runs(None), *sweep, protocols(), timeline, flows,
               save, figure)
    target("all", _run_claims, "every figure plus the claim checks",
           runs(None), *sweep)
    target("claims", _run_claims, "check the paper's quantitative claims",
           runs(None), *sweep)
    report = target("report", _run_report, "per-channel metric summary of "
                    "a figure sweep", runs(3), *sweep)
    report.add_argument("--profile", action="store_true",
                        help="also print the hierarchical wall-clock timer "
                             "tree (engine loop, Dijkstra, harness phases)")
    report.add_argument("--figure", choices=list(FIGURE_METRICS),
                        default="fig7a", help="which figure-style sweep to "
                                              "run (default %(default)s)")
    target("baseline", _run_baseline, "persist a registry snapshot of a "
           "fig7a sweep", runs(3), *sweep, out("BENCH_registry.json"))
    target("ablations", _run_ablations, "the asymmetry, unicast-cloud, RP "
           "and connectivity sweeps", runs(50), engine, trace)

    bench = target("bench", _run_bench, "run the timed benchmark suite and "
                   "(with --check) gate against a baseline", out(None))
    bench.add_argument("--check", default=None, metavar="BASELINE",
                       help="compare against this committed baseline JSON "
                            "and exit nonzero on regression (p50 beyond "
                            "the per-benchmark tolerance, or protocol "
                            "metric drift)")
    bench.add_argument("--iterations", type=_count,
                       default=DEFAULT_ITERATIONS,
                       help="timed iterations per micro-benchmark "
                            "(default %(default)s)")
    bench.add_argument("--tolerance", type=float, default=None,
                       help="with --check: override the default 20%% "
                            "normalized-p50 regression budget")
    bench.add_argument("--trend", default=None, metavar="JSONL",
                       help="append this run's normalized p50s to a JSONL "
                            "trend history (CI keeps one per branch)")
    bench.add_argument("--trend-branch", default=None, metavar="NAME",
                       help="with --trend: tag appended records with a "
                            "branch name")
    bench.add_argument("--summary", default=None, metavar="MD",
                       help="write a markdown delta-vs-baseline table "
                            "(CI appends it to the job summary)")

    explain = target("explain", _run_explain, "render the causal chains "
                     "behind a scenario's tree",
                     scenario([FIG2_SCENARIO, *faults.SCENARIOS],
                              FIG2_SCENARIO), protocols("hbh"), trace, flight)
    explain.add_argument("--query", default=None,
                         help="one targeted question, NODE.TABLE[ADDRESS] "
                              "(e.g. '3.mft[11]': why does router 3 hold "
                              "an MFT entry for 11?)")
    target("faults", _run_faults, "replay a named fault scenario and "
           "report recovery time and repair loss",
           scenario([*faults.SCENARIOS, "all"], "flap-storm"), engine,
           trace, flight, timeline, flows)
    target("timeline", _run_timeline, "a fig4-style stability-over-time "
           "report of a fault scenario's tree dynamics",
           scenario([*faults.SCENARIOS, "all"], "primary-cut"), timeline)

    replay = (scenario(list(churn.SCENARIOS), "iptv-primetime"),
              protocols(), engine, workload)
    churn_target = target("churn", _run_churn, "replay a mass-membership "
                          "workload: control load, tree churn and "
                          "convergence latency per protocol", *replay,
                          timeline, flows, save)
    churn_target.add_argument("--stream-out", default="", metavar="JSONL",
                              help="also write the scenario's event-stream "
                                   "prefix as JSONL (the CI golden file)")
    churn_target.add_argument("--stream-limit", type=_count, default=256,
                              help="with --stream-out: events to write "
                                   "(default %(default)s)")
    target("flows", _run_flows, "data-plane telemetry report over a churn "
           "scenario (link heatmap, top-K hot links, per-channel delivery "
           "SLOs)", *replay, flows, save)
    return parser


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    """Parse a command line; every one rejected exits 2 before
    anything runs."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # Rendering an archive records nothing, and 'faults --scenario all'
    # runs every scenario in parallel, untraced.
    if args.target in FIGURE_METRICS and args.load:
        untraced, recorded = "--load", ("trace-out", "timeline-out",
                                        "flows-out")
    elif args.target == "faults" and args.scenario == "all":
        untraced, recorded = "--scenario all", ("trace-out", "flight-out")
    else:
        return args
    for flag in recorded:
        if getattr(args, flag.replace("-", "_")):
            parser.error(f"--{flag} is not supported by {args.target!r} "
                         f"with {untraced}, which runs no traced simulation")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    tracer = flight = None
    if args.trace_out or args.flight_out or args.target == "explain":
        from repro.obs.causal import CausalTracer
        from repro.obs.flight import FlightRecorder

        tracer = CausalTracer(maxlen=65536)
        flight = FlightRecorder()

    bus = server = None
    if args.live or args.metrics_port is not None:
        from repro.obs.bus import LiveProgressView, TelemetryBus

        bus = TelemetryBus()
        if args.live:
            LiveProgressView(stream=sys.stderr).attach(bus)
        if args.metrics_port is not None:
            from repro.obs.export import (
                render_openmetrics,
                start_metrics_server,
            )

            server = start_metrics_server(
                lambda: bus.with_registry(render_openmetrics),
                port=args.metrics_port,
            )
            print(f"metrics: http://127.0.0.1:{server.port}/metrics",
                  file=sys.stderr)
    try:
        return args.run(args, tracer, flight, bus)
    finally:
        if server is not None:
            server.close()
        if tracer is not None and args.trace_out:
            count = tracer.to_jsonl(args.trace_out)
            print(f"wrote {count} spans to {args.trace_out}",
                  file=sys.stderr)
        if flight is not None and args.flight_out:
            count = flight.dump(args.flight_out)
            print(f"wrote {count} flight entries to {args.flight_out}",
                  file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
