#!/usr/bin/env python3
"""End-to-end benchmark of the HBH reproduction.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The workloads (``workloads.py``; named and explained in BENCHMARK.json)
drive the program only through its public functions, closed-loop and
serial in one process: an instance starts when the previous one has
returned.  Every measurement runs in a fresh interpreter
(``worker.py``), so set-up time, peak memory and module-level caches
belong to one workload run.

``--trace 0`` starts :data:`SETUP_PROBES` set-up-only processes and one
measuring process and reports the end-to-end metrics.  ``--trace 1``
starts one untraced and one traced measuring process, each for S
seconds, and reports the per-layer metrics plus the tracing overhead
(traced minus untraced ``wall_s``).

Times are scaled to a reference host speed by the samples of it taken
while they ran (``speed.py``); set-up time by samples taken once the
inputs are ready.  ``wall_s`` is the median instance, and the cell
metrics are taken over each cell's median across the instances.

The outputs are correct when every instance, untraced or traced, has
the same output digest, that digest matches the one ``expected.json``
records for the seed (when it records one), and no operation failed.
The report ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  Exit status 1 means a correctness check failed, 2 that
the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from speed import REFERENCE_S  # beside this file

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up-only processes per untraced run besides the measuring one;
#: ``setup_s`` is the median over all of them.
SETUP_PROBES = 4

#: Wall-clock budget of one benchmark run, every process included.
BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong output)."""


def monotonic() -> float:
    """CLOCK_MONOTONIC is system-wide, so a worker's ready time and the
    time its parent spawned it are read on one clock."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def load_expected() -> dict:
    """The recorded default and held-out seeds and their digests."""
    return load_json(HERE / "expected.json")


def run_worker(workload: str, seed: int, seconds: float, mode: str,
               deadline: float) -> dict:
    """Run one ``worker.py`` process to completion and return its
    report, with ``setup_s`` (spawn to inputs ready, at the reference
    speed) added."""
    spawned = monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed),
         repr(seconds), mode],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(
            f"the {mode} worker overran the {BUDGET_S:g} s budget") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"the {mode} worker exited with {proc.returncode}")
    report = json.loads(out.splitlines()[-1])
    report["setup_s"] = ((report["ready_at"] - spawned) * REFERENCE_S
                         / report["setup_reference_s"])
    return report


def nearest_rank(values: List[float], percent: int) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(percent * len(ordered) / 100)) - 1]


def tail_percentile(count: int) -> int:
    """The highest nearest-rank percentile with at least ten cells
    beyond it; 100, the slowest cell, when there are ten or fewer.
    A workload's cell count is fixed, so is its percentile."""
    for percent in range(99, 0, -1):
        if count - math.ceil(percent * count / 100) >= 10:
            return percent
    return 100


def instances_of(runs: List[dict]) -> List[dict]:
    return [instance for run in runs for instance in run["instances"]]


def median_wall(run: dict) -> float:
    return statistics.median(i["scaled_wall_s"] for i in run["instances"])


def cell_medians(instances: List[dict]) -> List[float]:
    """Each cell's median time over the instances."""
    times = defaultdict(list)
    for instance in instances:
        for key, seconds in instance["cells"].items():
            times[key].append(seconds)
    return [statistics.median(values) for values in times.values()]


def end_to_end(setups: List[float], plain: dict
               ) -> Tuple[Dict[str, float], List[str]]:
    """The end-to-end metrics of one untraced run, plus report notes
    on the figures that apply to some workloads only."""
    instances = plain["instances"]
    wall = median_wall(plain)
    cells = cell_medians(instances) or [0.0]
    tail = tail_percentile(len(cells))
    attempted = sum(i["attempted"] for i in instances)
    failed = sum(i["failed"] for i in instances)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cells_per_s": len(cells) / wall,
        "cell_p50_ms": 1e3 * nearest_rank(cells, 50),
        "cell_tail_ms": 1e3 * nearest_rank(cells, tail),
        "peak_rss_mb": plain["peak_rss_mb"],
    }
    raw = statistics.median(i["wall_s"] for i in instances)
    notes = [
        f"unscaled median instance wall time {raw!r} s",
        f"cell_tail_ms is the p{tail} nearest rank of {len(cells)} cells",
        f"failed_frac = {failed / attempted!r} ratio "
        f"({failed} of {attempted} operations)",
    ]
    churn = instances[0]["churn_events"]
    if churn:
        notes.append(f"churn_events_per_s = {churn / wall!r} events/s")
    sim = instances[0]["sim_events"]
    if sim:
        notes.append(f"sim_events_per_s = {sim / wall!r} events/s")
    return metrics, notes


def verdict(workload: str, seed: int, runs: List[dict], expected: dict
            ) -> Tuple[List[str], List[str], Optional[str]]:
    """Why the outputs are wrong (empty when they are correct), the
    distinct output digests, and the digest recorded for the seed."""
    instances = instances_of(runs)
    problems = [p for i in instances for p in i["problems"]]
    digests = sorted({i["digest"] for i in instances})
    if len(digests) > 1:
        problems.append("instances disagree on the output digest: "
                        + ", ".join(d[:12] for d in digests))
    recorded = expected["digests"].get(workload, {}).get(str(seed))
    if recorded is not None and digests != [recorded]:
        problems.append(f"the output digest differs from the one recorded "
                        f"for seed {seed} ({recorded[:12]})")
    return problems, digests, recorded


def measure(args) -> Tuple[List[dict], Dict[str, float], List[str]]:
    deadline = monotonic() + BUDGET_S

    def worker(mode: str) -> dict:
        return run_worker(args.workload, args.seed, args.seconds, mode,
                          deadline)

    if args.trace:
        plain = worker("plain")
        traced = worker("traced")
        metrics = dict(traced["layers"])
        metrics["tracing.overhead_s"] = median_wall(traced) - median_wall(plain)
        notes = [f"{len(plain['instances'])} untraced and "
                 f"{len(traced['instances'])} traced instances; span log in "
                 f".perfbench/spans-{args.workload}-{args.seed}.jsonl"]
        return [plain, traced], metrics, notes
    setups = [worker("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    plain = worker("plain")
    setups.append(plain["setup_s"])
    metrics, notes = end_to_end(setups, plain)
    notes.insert(0, f"{len(plain['instances'])} instances, setup_s is the "
                    f"median of {len(setups)} fresh processes")
    return [plain], metrics, notes


def main(argv=None) -> int:
    spec = load_json(ROOT / "BENCHMARK.json")
    expected = load_expected()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=expected["default_seed"])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing under "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        runs, metrics, notes = measure(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(declared):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(declared))} "
              f"differ from BENCHMARK.json", file=sys.stderr)
        return 2

    problems, digests, recorded = verdict(args.workload, args.seed, runs,
                                          expected)
    instances = instances_of(runs)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  output digest {', '.join(d[:16] for d in digests)}; "
          f"recorded for this seed: {recorded[:16] if recorded else 'none'}")
    if args.trace and len(digests) == 1:
        print("  traced outputs match untraced")
    for name, unit in declared.items():
        print(f"  {name:<38} {metrics[name]!r} {unit}")
    for note in notes:
        print(f"  note: {note}")
    for problem in problems:
        print(f"  INCORRECT: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(i["attempted"] for i in instances),
        "failed": sum(i["failed"] for i in instances),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
