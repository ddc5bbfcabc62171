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
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

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


#: Targets that write a ``--save`` archive, and the ones that render an
#: archived sweep back with ``--load``; any other target rejects the flag.
SAVE_TARGETS = sorted(FIGURE_METRICS) + ["churn", "flows"]
LOAD_TARGETS = sorted(FIGURE_METRICS)


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


def _run_ablations(runs: int, tracer=None, jobs: int = 1,
                   bus=None) -> int:
    from repro.experiments.ablations import (
        asymmetry_sweep,
        connectivity_sweep,
        rp_placement_sweep,
        unicast_cloud_sweep,
    )

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


def _run_report(figure: str, runs: int, profile: bool,
                quiet: bool, tracer=None, jobs: int = 1,
                cache_dir=None, resume: bool = False, bus=None) -> int:
    """A fig7-style observability run: per-channel metric summary plus
    (optionally) the wall-clock timer tree."""
    from repro.experiments.figures import figure_config
    from repro.experiments.harness import run_sweep

    if profile:
        PROFILER.reset()
        PROFILER.enable()
    try:
        config = figure_config(figure, runs=runs)
        registry = MetricsRegistry()
        result = run_sweep(config, progress=_progress_printer(quiet),
                           metrics=registry, tracer=tracer, jobs=jobs,
                           cache_dir=cache_dir, resume=resume, bus=bus)
    finally:
        if profile:
            PROFILER.disable()
    _exec_summary(result)
    print(f"== per-channel metrics ({config.name}, "
          f"{config.runs} runs/point) ==")
    print(render_channel_metrics(registry))
    print(f"elapsed: {result.elapsed_seconds:.1f}s", file=sys.stderr)
    if profile:
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


def _run_baseline(out: str, runs: int, quiet: bool, tracer=None,
                  jobs: int = 1, cache_dir=None,
                  resume: bool = False, bus=None) -> int:
    """Persist a registry snapshot baseline: tree cost, join latency
    and engine throughput dumped from the obs registry.  (The perf
    regression gate is the separate ``bench`` target.)"""
    import json
    import platform

    from repro.experiments.figures import figure_config
    from repro.experiments.harness import run_sweep

    registry = MetricsRegistry()
    config = figure_config("fig7a", runs=runs)
    result = run_sweep(config, progress=_progress_printer(quiet),
                       metrics=registry, tracer=tracer, jobs=jobs,
                       cache_dir=cache_dir, resume=resume, bus=bus)
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
    with open(out, "w") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
    print(f"wrote {out} (engine {events_per_sec:,.0f} events/s)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hbh-experiments",
        description="Regenerate the evaluation figures of the HBH paper "
                    "(SIGCOMM 2001).",
    )
    parser.add_argument(
        "target",
        choices=sorted(FIGURE_METRICS) + ["all", "claims", "ablations",
                                          "report", "baseline", "bench",
                                          "faults", "explain", "timeline",
                                          "churn", "flows"],
        help="figure to regenerate, 'all' for every figure, 'claims' to "
             "check the paper's quantitative claims, 'ablations' for "
             "the asymmetry/unicast-cloud/RP/connectivity sweeps, "
             "'report' for an observability summary (add --profile for "
             "the timer tree), 'baseline' to persist a registry "
             "snapshot, 'bench' to run the timed benchmark suite and "
             "(with --check) gate against a committed baseline, "
             "'faults' to replay a named fault scenario and report "
             "recovery time + repair loss, 'explain' to render the "
             "causal chains behind a scenario's tree (see --query), or "
             "'timeline' for a fig4-style stability-over-time report "
             "of a fault scenario's tree dynamics, or 'churn' to replay "
             "a mass-membership workload (repro.workload) and sweep "
             "control load, tree churn and convergence latency per "
             "protocol, or 'flows' for a data-plane telemetry report "
             "over a churn scenario (link heatmap, top-K hot links, "
             "per-channel delivery SLOs)",
    )
    parser.add_argument(
        "--runs", type=int, default=None,
        help="Monte-Carlo runs per point (default: the paper's 500; "
             "ablations default to 50, report/baseline to 3)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for sweep execution (1 = serial in this "
             "process; results are byte-identical either way)",
    )
    parser.add_argument(
        "--cache-dir", default="",
        help="enable the content-addressed run cache and checkpoint "
             "journal under this directory (re-running a sweep after "
             "an unrelated change skips completed runs)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted sweep from its checkpoint journal "
             "(requires --cache-dir)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="with 'report': also print the hierarchical wall-clock "
             "timer tree (engine loop, Dijkstra, harness phases)",
    )
    parser.add_argument(
        "--figure", default="fig7a",
        help="with 'report': which figure-style sweep to run "
             "(default fig7a)",
    )
    parser.add_argument(
        "--out", default="",
        help="with 'baseline'/'bench': output path (baseline defaults "
             "to BENCH_registry.json, bench to BENCH_<git rev>.json)",
    )
    parser.add_argument(
        "--live", action="store_true",
        help="stream live per-cell progress to stderr (done/total, ETA, "
             "cache-hit rate, in-flight cells) while a sweep runs",
    )
    parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve the in-flight merged metrics registry as OpenMetrics "
             "text at http://127.0.0.1:PORT/metrics while the sweep "
             "runs (0 picks an ephemeral port, printed to stderr)",
    )
    parser.add_argument(
        "--check", default="", metavar="BASELINE",
        help="with 'bench': compare against this committed baseline "
             "JSON and exit nonzero on regression (p50 beyond the "
             "per-benchmark tolerance, or protocol metric drift)",
    )
    parser.add_argument(
        "--iterations", type=int, default=None,
        help="with 'bench': timed iterations per micro-benchmark "
             "(default 30)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=None,
        help="with 'bench --check': override the default 20%% "
             "normalized-p50 regression budget",
    )
    parser.add_argument(
        "--trend", default="", metavar="JSONL",
        help="with 'bench': append this run's normalized p50s to a "
             "JSONL trend history (CI keeps one per branch)",
    )
    parser.add_argument(
        "--trend-branch", default="", metavar="NAME",
        help="with 'bench --trend': tag appended records with a branch "
             "name",
    )
    parser.add_argument(
        "--summary", default="", metavar="MD",
        help="with 'bench': write a markdown delta-vs-baseline table "
             "(CI appends it to the job summary)",
    )
    parser.add_argument(
        "--protocols", default="",
        help="comma-separated protocol list overriding the paper's four "
             "curves (e.g. add the mospf reference: "
             "pim-sm,pim-ss,reunite,hbh,mospf)",
    )
    parser.add_argument(
        "--scenario", default=None,
        help="with 'faults'/'explain'/'churn'/'flows': which named "
             "scenario to replay (faults default flap-storm, explain "
             "default fig2, churn/flows default iptv-primetime; see the "
             "SCENARIOS table of repro.experiments.faults / "
             "repro.experiments.churn)",
    )
    parser.add_argument(
        "--events", type=int, default=None,
        help="with 'churn'/'flows': override the scenario's global "
             "event-stream limit (counted before channel sharding; "
             "'flows' defaults to a 20k-event prefix to stay "
             "interactive)",
    )
    parser.add_argument(
        "--channels", type=int, default=None,
        help="with 'churn'/'flows': override the scenario's channel "
             "count",
    )
    parser.add_argument(
        "--stream-out", default="", metavar="JSONL",
        help="with 'churn': also write the scenario's event-stream "
             "prefix as JSONL (the CI golden-prefix file)",
    )
    parser.add_argument(
        "--stream-limit", type=int, default=256,
        help="with 'churn --stream-out': events to write (default 256)",
    )
    parser.add_argument(
        "--seed", type=int, default=1,
        help="with 'faults'/'explain': schedule seed (same seed => "
             "byte-identical replay)",
    )
    parser.add_argument(
        "--query", default=None,
        help="with 'explain': one targeted question, NODE.TABLE[ADDRESS] "
             "(e.g. '3.mft[11]': why does router 3 hold an MFT entry "
             "for 11?)",
    )
    parser.add_argument(
        "--trace-out", default="",
        help="archive the run's causal spans as JSONL here (figure "
             "sweeps and ablations trace run 0 of each point; faults "
             "and explain trace the whole run)",
    )
    parser.add_argument(
        "--flight-out", default="",
        help="with 'explain'/'faults': dump the per-channel flight "
             "recorder rings as JSONL here",
    )
    parser.add_argument(
        "--flows-out", default="",
        help="archive sampled data-plane flow records as JSONL here "
             "(figure sweeps, 'faults', 'churn' and 'flows' run every "
             "cell under the flow-telemetry plane when set); "
             "byte-identical across --jobs values and PYTHONHASHSEED",
    )
    parser.add_argument(
        "--flow-sample", type=int, default=1, metavar="N",
        help="with --flows-out/'flows': deterministic 1-in-N flow "
             "sampling (default 1 = every flow; the sampled subset is "
             "seed-derived, not load-dependent)",
    )
    parser.add_argument(
        "--timeline-out", default="",
        help="archive the tree-dynamics timeline as JSONL here "
             "(figure sweeps run every cell under the timeline plane; "
             "'faults'/'timeline' record the scenario's event stream); "
             "byte-identical across --jobs values and replays",
    )
    parser.add_argument("--csv", default="", help="also write CSV here")
    parser.add_argument("--save", default="",
                        help="archive the result as JSON here (figure "
                             "targets, 'churn' and 'flows')")
    parser.add_argument("--load", default="",
                        help="render a previously archived sweep instead "
                             "of re-simulating (figure targets)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    args = parser.parse_args(argv)
    for flag, honoured in (("save", SAVE_TARGETS), ("load", LOAD_TARGETS)):
        if getattr(args, flag) and args.target not in honoured:
            parser.error(f"--{flag} is not supported by {args.target!r}; "
                         f"it is honoured by {', '.join(honoured)}")

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
        return _dispatch(args, tracer, flight, bus)
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


def _dispatch(args, tracer, flight, bus=None) -> int:
    progress = _progress_printer(args.quiet)
    cache_dir = args.cache_dir or None
    if args.target == "bench":
        from repro.obs.bench import run_bench

        return run_bench(
            out=args.out or None,
            check=args.check or None,
            iterations=args.iterations,
            tolerance=args.tolerance,
            quiet=args.quiet,
            trend=args.trend or None,
            trend_branch=args.trend_branch or None,
            summary=args.summary or None,
        )
    if args.target == "explain":
        from repro.experiments.explain import run_explain

        protocol = (args.protocols.split(",")[0].strip()
                    if args.protocols else "hbh")
        text, code = run_explain(
            scenario=args.scenario or "fig2", protocol=protocol,
            query=args.query, seed=args.seed, tracer=tracer, flight=flight,
        )
        print(text, end="")
        return code
    if args.target == "faults":
        from repro.experiments.faults import (
            render_result,
            run_scenario,
            run_scenarios,
            scenario_timeline,
        )

        if args.scenario == "all":
            payloads = run_scenarios(seed=args.seed, jobs=args.jobs,
                                     bus=bus,
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
            flow = FlowTelemetry(enabled=True,
                                 sample_every=args.flow_sample,
                                 registry=registry, seed=args.seed)
        result, registry = run_scenario(args.scenario or "flap-storm",
                                        seed=args.seed, registry=registry,
                                        tracer=tracer, flight=flight,
                                        timeline=timeline, flow=flow)
        print(render_result(result, registry))
        if timeline is not None:
            _write_timeline(timeline.event_dicts(), args.timeline_out)
        if flow is not None:
            _write_flows(flow.record_dicts(), args.flows_out)
        return 0 if result.recovered else 1
    if args.target == "churn":
        from pathlib import Path

        from repro.experiments.churn import (
            archive_text,
            render_report,
            run_churn,
            write_stream_prefix,
        )

        scenario = args.scenario or "iptv-primetime"
        protocols = ([p.strip() for p in args.protocols.split(",")
                      if p.strip()] if args.protocols else None)
        if args.stream_out:
            count = write_stream_prefix(scenario, args.seed,
                                        args.stream_out,
                                        limit=args.stream_limit,
                                        channels=args.channels)
            print(f"wrote {count} stream events to {args.stream_out}",
                  file=sys.stderr)
        payloads = run_churn(scenario, protocols=protocols,
                             seed=args.seed, jobs=args.jobs, bus=bus,
                             events=args.events, channels=args.channels,
                             timeline=bool(args.timeline_out),
                             flows=bool(args.flows_out),
                             flow_sample=args.flow_sample)
        print(render_report(payloads, scenario, args.seed))
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
            Path(args.save).write_text(
                archive_text(payloads, scenario, args.seed))
            print(f"archived churn run to {args.save}", file=sys.stderr)
        return 0
    if args.target == "flows":
        from pathlib import Path

        from repro.experiments.churn import archive_text
        from repro.experiments.flows import (
            merged_records,
            render_flow_report,
            run_flows,
        )

        scenario = args.scenario or "iptv-primetime"
        protocols = ([p.strip() for p in args.protocols.split(",")
                      if p.strip()] if args.protocols else None)
        payloads = run_flows(scenario, protocols=protocols,
                             seed=args.seed, jobs=args.jobs, bus=bus,
                             events=args.events, channels=args.channels,
                             flow_sample=args.flow_sample)
        print(render_flow_report(payloads, scenario, args.seed))
        if args.flows_out:
            _write_flows(merged_records(payloads), args.flows_out)
        if args.save:
            Path(args.save).write_text(
                archive_text(payloads, scenario, args.seed))
            print(f"archived flows run to {args.save}", file=sys.stderr)
        return 0
    if args.target == "timeline":
        from repro.experiments.faults import (
            FAST,
            SCENARIOS,
            run_scenario,
            scenario_timeline,
        )
        from repro.experiments.timeline_report import render_timeline

        names = (sorted(SCENARIOS) if args.scenario == "all"
                 else [args.scenario or "primary-cut"])
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
    if args.target == "report":
        return _run_report(args.figure, args.runs or 3, args.profile,
                           args.quiet, tracer=tracer, jobs=args.jobs,
                           cache_dir=cache_dir, resume=args.resume,
                           bus=bus)
    if args.target == "baseline":
        return _run_baseline(args.out or "BENCH_registry.json",
                             args.runs or 3, args.quiet,
                             tracer=tracer, jobs=args.jobs,
                             cache_dir=cache_dir, resume=args.resume,
                             bus=bus)
    if args.target == "ablations":
        return _run_ablations(args.runs or 50, tracer=tracer,
                              jobs=args.jobs, bus=bus)
    if args.target in FIGURE_METRICS:
        from dataclasses import replace

        from repro.experiments.figures import figure_config
        from repro.experiments.harness import run_sweep
        from repro.experiments.storage import load_result, save_result

        if args.load:
            result = load_result(args.load)
        else:
            config = figure_config(args.target, runs=args.runs)
            if args.protocols:
                config = replace(
                    config,
                    protocols=tuple(p.strip()
                                    for p in args.protocols.split(",")),
                )
            result = run_sweep(config, progress=progress, tracer=tracer,
                               jobs=args.jobs, cache_dir=cache_dir,
                               resume=args.resume, bus=bus,
                               timeline=bool(args.timeline_out),
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

    # 'all' and 'claims' need every sweep; fig8 reuses fig7 data.
    from repro.experiments.claims import run_claim_sweeps

    print("== running sweeps for fig7a/fig7b ==", file=sys.stderr)
    results: Dict[str, SweepResult] = run_claim_sweeps(
        runs=args.runs, progress=progress, tracer=tracer, jobs=args.jobs,
        cache_dir=cache_dir, resume=args.resume, bus=bus,
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


if __name__ == "__main__":
    sys.exit(main())
