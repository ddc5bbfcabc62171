"""One measuring process of the benchmark; ``run.py`` starts it.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE

Every MODE imports the program, builds the workload's inputs and then
samples the host's speed (``speed.py``) to scale its set-up time.
``setup`` stops there; ``plain`` then runs instances of the workload
back to back until SECONDS have passed and at least
:data:`MIN_INSTANCES` have run (none after an instance that failed),
sampling the host's speed throughout; ``traced`` does the same with the
layer wrappers of ``spans.py`` installed and writes the span log to
``.perfbench/`` at the checkout root.  The only stdout line is one JSON
object: the CLOCK_MONOTONIC time at which the inputs were ready and the
reference time sampled then, each instance's outcome with its wall
time and its own and its cells' times at the reference speed, the peak
RSS and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402  (imports the program)

#: Instances per measuring process at the least: each cell's time is
#: its median over them.
MIN_INSTANCES = 2

#: Reference samples taken once the inputs are ready.
SETUP_SAMPLES = 10


def measure(workload, inputs, seconds: float, tracer) -> list:
    """Run instances until ``seconds`` have passed and at least
    :data:`MIN_INSTANCES` have run; one dict each."""
    with speed.Sampler() as sampler:
        return _measure(workload, inputs, seconds, tracer, sampler)


def _measure(workload, inputs, seconds: float, tracer,
             sampler: speed.Sampler) -> list:
    instances = []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        try:
            if tracer is None:
                outcome = workload.run(inputs)
            else:
                outcome = tracer.span(spans.ROOT, workload.run, inputs)
        except Exception:  # a failed instance is a result, not a crash
            traceback.print_exc()
            planned = workload.planned(inputs)
            outcome = workloads.Outcome(
                digest="", cells={}, attempted=planned,
                failed=planned,
                problems=[traceback.format_exc().strip().splitlines()[-1]])
        wall = time.perf_counter() - started
        instances.append(dict(
            asdict(outcome), wall_s=wall,
            scaled_wall_s=sampler.scaled(started, wall),
            cells={key: sampler.scaled(start, cell_s)
                   for key, (start, cell_s) in outcome.cells.items()}))
        if outcome.failed or (len(instances) >= MIN_INSTANCES
                              and time.perf_counter() >= deadline):
            return instances


def main(argv: list) -> int:
    name, seed, seconds, mode = argv[1], int(argv[2]), float(argv[3]), argv[4]
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(seed)
    report = {"ready_at": time.clock_gettime(time.CLOCK_MONOTONIC)}
    report["setup_reference_s"] = statistics.median(
        speed.reference() for _ in range(SETUP_SAMPLES))
    if mode != "setup":
        tracer = None
        if mode == "traced":
            tracer = spans.Tracer()
            tracer.install()
        try:
            instances = measure(workload, inputs, seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        report["instances"] = instances
        report["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer is not None:
            report["layers"] = spans.layer_metrics(
                tracer, len(instances), instances[-1]["counters"])
            out = ROOT / ".perfbench"
            out.mkdir(exist_ok=True)
            tracer.write_spans(out / f"spans-{name}-{seed}.jsonl")
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
