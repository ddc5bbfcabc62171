"""Unit tests for the CLI entry point and the ablation sweeps."""

import pytest

from repro.experiments.__main__ import main
from repro.experiments.ablations import (
    asymmetry_sweep,
    connectivity_sweep,
    rp_placement_sweep,
    unicast_cloud_sweep,
)


class TestCli:
    def test_single_figure(self, capsys):
        assert main(["fig7a", "--runs", "2", "--quiet"]) == 0
        captured = capsys.readouterr()
        assert "fig7a" in captured.out
        assert "tree cost" in captured.out
        assert "elapsed" not in captured.out
        assert "elapsed" in captured.err

    def test_csv_output(self, tmp_path, capsys):
        csv_path = tmp_path / "fig8a.csv"
        assert main(["fig8a", "--runs", "2", "--quiet",
                     "--csv", str(csv_path)]) == 0
        content = csv_path.read_text()
        assert content.startswith("figure,topology")
        assert "fig8a" in content

    def test_bad_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    @pytest.mark.parametrize("flag,argv", [
        *(pytest.param("save", [target], id=target) for target in (
            "all", "claims", "ablations", "report", "baseline", "bench",
            "faults", "explain", "timeline")),
        *(pytest.param("trace-out", argv, id="trace-out-" + "-".join(argv))
          for argv in (["bench"], ["timeline"], ["churn"], ["flows"],
                       ["faults", "--scenario", "all"],
                       ["fig7a", "--load", "in.json"])),
        *(pytest.param("flight-out", argv, id="flight-out-" + "-".join(argv))
          for argv in (["fig7b"], ["scale10k"], ["all"], ["claims"],
                       ["report"], ["baseline"], ["ablations"], ["bench"],
                       ["timeline"], ["churn"], ["flows"],
                       ["faults", "--scenario", "all"])),
        *(pytest.param("timeline-out", argv,
                       id="timeline-out-" + "-".join(argv))
          for argv in (["explain"], ["flows"], ["all"], ["claims"],
                       ["report"], ["baseline"], ["ablations"], ["bench"],
                       ["fig7a", "--load", "in.json"])),
        *(pytest.param("flows-out", argv, id="flows-out-" + "-".join(argv))
          for argv in (["explain"], ["timeline"], ["all"], ["claims"],
                       ["report"], ["baseline"], ["ablations"], ["bench"],
                       ["fig7b", "--load", "in.json"])),
        *(pytest.param(flag, [target], id=f"{flag}-{target}")
          for flag, target in (("csv", "explain"), ("stream-out", "explain"),
                               ("jobs", "timeline"), ("runs", "bench"),
                               ("protocols", "all"), ("scenario", "fig7a"),
                               ("cache-dir", "ablations"))),
    ])
    def test_save_rejected_where_ignored(self, flag, argv, tmp_path, capsys):
        """A flag on a target that would ignore it is an unrecognized
        argument.  A recording flag on a target that renders an archive
        (``--load``) or, for tracing, runs every fault scenario
        (``faults --scenario all``) is rejected too.  Either way the
        CLI exits 2 before anything runs, so no file is written."""
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, f"--{flag}", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        target, *options = argv
        if options:
            assert (f"--{flag} is not supported by {target!r} with "
                    f"{options[0]}") in err
            assert "which runs no traced simulation" in err
        else:
            assert f"unrecognized arguments: --{flag}" in err
        assert not out.exists()

    @pytest.mark.parametrize("target", [
        "all", "claims", "ablations", "report", "baseline", "bench",
        "faults", "explain", "timeline", "churn", "flows",
    ])
    def test_load_rejected_where_ignored(self, target, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([target, "--load", str(tmp_path / "in.json")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --load" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        pytest.param(argv, id="-".join(argv)) for argv in (
            ["fig7a", "--runs", "0"], ["report", "--runs", "0"],
            ["ablations", "--runs", "0"], ["fig7a", "--jobs", "0"],
            ["churn", "--events", "0"], ["churn", "--channels", "0"],
            ["churn", "--stream-limit", "0"], ["flows", "--events", "0"],
            ["flows", "--flow-sample", "0"], ["bench", "--iterations", "0"],
            ["report", "--figure", "fig99"],
            *([target, "--scenario", "bogus"]
              for target in ("faults", "explain", "timeline", "churn")),
            ["fig7a", "--protocols", "hbh,bogus", "--runs", "1", "--quiet"],
            ["churn", "--protocols", "pim-sm", "--scenario", "ci-small"],
            ["flows", "--protocols", "mospf", "--scenario", "ci-small"],
            ["explain", "--protocols", "pim-sm"],
            ["explain", "--protocols", "reunite", "--scenario",
             "primary-cut"],
            ["explain", "--protocols", "hbh,reunite"],
            ["fig7a", "--resume", "--runs", "1", "--quiet"],
        )
    ])
    def test_bad_value_rejected_before_running(self, argv, capsys):
        """A zero count, an unknown figure or scenario name, a protocol
        the target cannot run (or more than one, on explain), or
        ``--resume`` without ``--cache-dir`` exits 2 at parse time,
        naming the flag, and nothing runs."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {argv[1]}:" in captured.err
        assert captured.out == ""

    def test_figure_save_writes_an_archive_load_renders(self, tmp_path,
                                                        capsys):
        archive = tmp_path / "fig7a.json"
        assert main(["fig7a", "--runs", "2", "--quiet",
                     "--save", str(archive)]) == 0
        saved = capsys.readouterr().out
        assert archive.stat().st_size > 0
        assert main(["fig7a", "--load", str(archive)]) == 0
        loaded = capsys.readouterr().out
        assert loaded == saved

    def test_progress_goes_to_stderr(self, capsys):
        main(["fig7a", "--runs", "2"])
        err = capsys.readouterr().err
        assert "runs" in err

    def test_live_progress_streams_to_stderr(self, capsys):
        assert main(["fig7a", "--runs", "2", "--quiet", "--live"]) == 0
        err = capsys.readouterr().err
        assert "live:" in err
        assert "cells (100%)" in err

    def test_exec_summary_reports_ratio_and_workers(self, capsys):
        assert main(["fig7a", "--runs", "2", "--quiet",
                     "--jobs", "2"]) == 0
        err = capsys.readouterr().err
        assert "exec: process backend, 2 worker(s)" in err
        assert "cache-hit ratio 0%" in err
        assert "cells/worker [" in err

    def test_metrics_port_serves_merged_registry(self, capsys,
                                                 monkeypatch):
        from urllib.request import urlopen

        from repro.obs import export as export_mod
        from repro.obs.export import OPENMETRICS_CONTENT_TYPE

        # The CLI closes the endpoint in its finally block; scraping
        # right before close sees the fully merged in-flight registry.
        captured = {}
        original_close = export_mod.MetricsServer.close

        def scraping_close(self):
            url = f"http://127.0.0.1:{self.port}/metrics"
            with urlopen(url, timeout=5) as response:
                captured["type"] = response.headers["Content-Type"]
                captured["body"] = response.read().decode("utf-8")
            original_close(self)

        monkeypatch.setattr(export_mod.MetricsServer, "close",
                            scraping_close)
        assert main(["fig7a", "--runs", "2", "--quiet",
                     "--metrics-port", "0"]) == 0
        err = capsys.readouterr().err
        assert "metrics: http://127.0.0.1:" in err
        assert captured["type"] == OPENMETRICS_CONTENT_TYPE
        assert captured["body"].endswith("# EOF\n")
        assert "tree_cost_copies" in captured["body"]

    def test_bench_target_writes_and_checks(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_base.json"
        assert main(["bench", "--iterations", "1", "--quiet",
                     "--out", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "calibration" in out
        assert f"wrote {baseline}" in out
        assert main(["bench", "--iterations", "1", "--quiet",
                     "--check", str(baseline), "--tolerance", "5.0",
                     "--out", str(tmp_path / "BENCH_now.json")]) == 0
        out = capsys.readouterr().out
        assert "regression gate" in out


class TestAsymmetrySweep:
    def test_symmetric_point_has_no_gap(self):
        points = asymmetry_sweep(spreads=(0.0,), group_size=4, runs=4)
        by_protocol = {p.protocol: p for p in points}
        assert by_protocol["hbh"].mean_delay == pytest.approx(
            by_protocol["reunite"].mean_delay, rel=0.02
        )

    def test_returns_point_per_protocol_per_spread(self):
        points = asymmetry_sweep(spreads=(0.0, 1.0), group_size=3,
                                 runs=2)
        assert len(points) == 4


class TestUnicastCloudSweep:
    def test_paired_design_monotone_cost(self):
        points = unicast_cloud_sweep(fractions=(0.0, 1.0), group_size=4,
                                     runs=4)
        by_fraction = {p.parameter: p for p in points}
        assert (by_fraction[1.0].mean_cost_copies
                >= by_fraction[0.0].mean_cost_copies)

    def test_delay_invariant_to_capability(self):
        points = unicast_cloud_sweep(fractions=(0.0, 1.0), group_size=4,
                                     runs=4)
        by_fraction = {p.parameter: p for p in points}
        assert by_fraction[1.0].mean_delay == pytest.approx(
            by_fraction[0.0].mean_delay, abs=1e-9
        )


class TestRpSweep:
    def test_all_strategies_measured(self):
        results = rp_placement_sweep(strategies=("first", "median"),
                                     group_size=4, runs=3)
        assert set(results) == {"first", "median"}
        for cost, delay in results.values():
            assert cost > 0 and delay > 0


class TestConnectivitySweep:
    def test_points_per_alpha(self):
        points = connectivity_sweep(alphas=(0.5,), num_nodes=12,
                                    group_size=3, runs=2)
        assert {p.protocol for p in points} == {"reunite", "hbh"}
