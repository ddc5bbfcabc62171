"""Self-tests of the benchmark.

    python -m pytest perfbench -q            # a few minutes

They check that the metric and workload names are well formed, that
every workload reports every metric BENCHMARK.json declares, untraced
and traced, that traced runs produce the untraced outputs, that a
tampered digest trips the correctness gate, that times are scaled to
the reference speed, and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}")
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_names_are_well_formed_and_unique():
    names = [entry["name"]
             for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert [name for name in names if not NAME.fullmatch(name)] == []
    assert len(names) == len(set(names))


def test_every_workload_is_implemented_with_recorded_digests():
    expected = bench.load_expected()
    seeds = {str(expected["default_seed"]), str(expected["held_out_seed"])}
    for entry in SPEC["workloads"]:
        assert entry["name"] in workloads.WORKLOADS
        assert set(expected["digests"][entry["name"]]) == seeds


def test_tampered_digest_trips_the_gate():
    digest = "0" * 64
    runs = [{"instances": [{"digest": digest, "problems": []}]}]
    recorded = {"digests": {"event-faults": {"1": digest}}}
    tampered = {"digests": {"event-faults": {"1": "1" + digest[1:]}}}

    def problems(seed, runs, expected):
        return bench.verdict("event-faults", seed, runs, expected)[0]

    assert problems(1, runs, recorded) == []
    assert problems(1, runs, tampered)
    # A seed without a recorded digest is held to agreement only.
    assert problems(7, runs, tampered) == []
    split = [{"instances": [{"digest": digest, "problems": []},
                            {"digest": "1" * 64, "problems": []}]}]
    assert problems(7, split, recorded)


def test_times_are_scaled_to_the_reference_speed():
    ref = speed.REFERENCE_S
    sampler = speed.Sampler()
    # Half the reference speed over [0, 2), full speed from 2 on.
    sampler.times = [0.5, 1.5, 2.5, 3.5]
    sampler.seconds = [2 * ref, 2 * ref, ref, ref]
    assert sampler.scaled(0.0, 2.0) == pytest.approx((2.0 - 4 * ref) / 2)
    assert sampler.scaled(0.0, 4.0) == \
        pytest.approx((4.0 - 6 * ref) / 1.5)
    # No sample inside: the samples either side.
    assert sampler.scaled(1.7, 0.2) == pytest.approx(0.2 / 1.5)
    assert sampler.scaled(5.0, 1.0) == pytest.approx(1.0)
    assert speed.Sampler().scaled(0.0, 1.0) == 1.0
    fast = {"cells": {"a": 2.0, "b": 1.0}}
    slow = {"cells": {"a": 2.0, "b": 3.0}}
    assert sorted(bench.cell_medians([fast, fast, slow])) == [1.0, 2.0]


@pytest.mark.parametrize("count, percent", [(8, 100), (10, 100), (11, 9),
                                            (36, 72), (200, 95)])
def test_tail_percentile_leaves_ten_cells_beyond(count, percent):
    assert bench.tail_percentile(count) == percent


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section",
                         [(0, "end_to_end"), (1, "per_layer")])
def test_workload_reports_every_declared_metric(workload, trace, section):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {entry["name"]: entry["unit"] for entry in SPEC[section]}
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == declared
    if trace:
        # The gate compared the traced digests with the untraced ones.
        assert "traced outputs match untraced" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("event-faults", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
