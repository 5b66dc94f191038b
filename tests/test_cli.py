"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    @pytest.mark.parametrize("argv", [
        ["sweep-coordinator", "--board", "b"],
        ["sweep-worker", "--board", "b"],
        ["sweep", "--workers", "2"],
        ["sweep", "--transport", "dist"],
        ["report", "--workers", "2"],
    ])
    def test_sweep_runs_in_process_only(self, argv):
        # The sweep has no process pool or task board to configure.
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestCommands:
    def test_table4(self, capsys):
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "TABLE IV" in out
        assert "Dual Socket" in out

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "Fig 4" in out and "MO" in out

    def test_fig5(self, capsys):
        assert main(["fig5"]) == 0
        assert "1200MHz" in capsys.readouterr().out

    def test_fig6(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "Energy [J]" in out and "DRAM" in out

    def test_predict(self, capsys):
        assert main(["predict", "--scheme", "mo", "--size", "11",
                     "--frequency", "1.8", "--threads", "8d"]) == 0
        out = capsys.readouterr().out
        assert "mo-11-1800MHz-8d" in out
        assert "energy" in out

    def test_predict_ondemand(self, capsys):
        assert main(["predict", "--frequency", "ondemand"]) == 0
        assert "ondemand" in capsys.readouterr().out

    def test_validate_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_cachegrind_small(self, capsys):
        assert main(["cachegrind", "--n", "64", "--rows", "2"]) == 0
        out = capsys.readouterr().out
        assert "HO / MO ratio" in out
        assert "LL  misses" in out

    def test_atlas_small(self, capsys):
        assert main(["atlas", "--side", "64"]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_hardware(self, capsys):
        assert main(["hardware", "--size", "11", "--threads", "8s"]) == 0
        out = capsys.readouterr().out
        assert "ho-hw" in out and "mo-inc" in out

    def test_edp(self, capsys):
        assert main(["edp"]) == 0
        out = capsys.readouterr().out
        assert "min EDP" in out

    def test_roofline(self, capsys):
        assert main(["roofline"]) == 0
        out = capsys.readouterr().out
        assert "memory-bound" in out

    def test_scaling(self, capsys):
        assert main(["scaling"]) == 0
        out = capsys.readouterr().out
        assert "eff" in out and "HO size 12" in out

    def test_query_small(self, capsys):
        assert main(["query", "--grid", "8", "--tile", "4",
                     "--queries", "8"]) == 0
        out = capsys.readouterr().out
        assert "workload" in out and "util" in out
        assert "HO" in out and "MO" in out and "RM" in out

    def test_query_rejects_unknown_workload(self, capsys):
        assert main(["query", "--grid", "8", "--workloads", "join"]) == 1
        assert "error" in capsys.readouterr().err

    def test_gallery(self, capsys):
        assert main(["gallery", "--order", "1"]) == 0
        out = capsys.readouterr().out
        assert "Morton" in out and "Hilbert" in out


class TestSweep:
    def test_sweep_no_cache(self, capsys):
        assert main(["sweep", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "swept 216 points" in out

    def test_sweep_cold_then_warm_cache(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["sweep", "--cache-dir", cache]) == 0
        first = capsys.readouterr().out
        assert "0 cache hits" in first
        assert main(["sweep", "--cache-dir", cache]) == 0
        second = capsys.readouterr().out
        assert "216 cache hits (100%)" in second
        assert (tmp_path / "cache" / "telemetry.jsonl").exists()

    def test_sweep_output_and_resume(self, capsys, tmp_path):
        out_path = str(tmp_path / "results.json")
        assert main(["sweep", "--no-cache",
                     "--output", out_path]) == 0
        capsys.readouterr()
        assert main(["sweep", "--no-cache",
                     "--output", out_path, "--resume"]) == 0
        assert "216 resumed" in capsys.readouterr().out

    def test_sweep_csv_output(self, capsys, tmp_path):
        out_path = str(tmp_path / "results.csv")
        assert main(["sweep", "--no-cache",
                     "--output", out_path]) == 0
        from repro.experiments import ResultSet

        assert len(ResultSet.from_csv(out_path)) == 216

    def test_report_through_sweep_engine(self, tmp_path):
        from repro.experiments import SweepEngine, generate_report

        engine = SweepEngine(cache_dir=tmp_path / "c")
        text = generate_report(fast=True, sweep=engine)
        assert "TABLE IV" in text
        assert engine.stats.points == 216


class TestObservabilityFlags:
    def test_cachegrind_trace_metrics_profile(self, capsys, tmp_path):
        trace = str(tmp_path / "run.jsonl")
        metrics = str(tmp_path / "run.json")
        assert main(["cachegrind", "--n", "32", "--rows", "2",
                     "--trace", trace, "--metrics", metrics,
                     "--profile"]) == 0
        assert "HO / MO ratio" in capsys.readouterr().out

        import json

        snap = json.loads((tmp_path / "run.json").read_text())
        assert any(k.startswith("cache.accesses") for k in snap["counters"])
        assert "profile" in snap

        assert main(["trace-report", trace, "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "study.cachegrind" in out
        assert "hotspots by self time" in out

    def test_mrc_trace(self, capsys, tmp_path):
        trace = str(tmp_path / "mrc.jsonl")
        assert main(["mrc", "--n", "16", "--rows", "1",
                     "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["trace-report", trace]) == 0
        assert "study.mrc" in capsys.readouterr().out

    def test_sweep_metrics(self, capsys, tmp_path):
        metrics = str(tmp_path / "sweep.json")
        assert main(["sweep", "--no-cache",
                     "--metrics", metrics]) == 0
        capsys.readouterr()
        import json

        snap = json.loads((tmp_path / "sweep.json").read_text())
        assert snap["counters"]["sweep.points"] == 216

    def test_profile_without_sink_exits_1(self, capsys):
        assert main(["cachegrind", "--n", "32", "--rows", "2",
                     "--profile"]) == 1
        assert "--trace and/or --metrics" in capsys.readouterr().err

    def test_trace_report_missing_file_exits_1(self, capsys, tmp_path):
        assert main(["trace-report", str(tmp_path / "nope.jsonl")]) == 1
        assert "trace file not found" in capsys.readouterr().err


class TestTraceCommand:
    """`sfc-repro trace`: materialize a trace spec to a columnar IR file."""

    PARAMS = (
        '{"n": 8, "scheme_a": "ho", "scheme_b": "ho", "scheme_c": "ho",'
        ' "elem_bytes": 8}'
    )

    def test_materialize_to_output(self, capsys, tmp_path):
        out = tmp_path / "m.ir"
        assert main(["trace", "--kind", "matmul", "--params", self.PARAMS,
                     "--output", str(out)]) == 0
        text = capsys.readouterr().out
        assert out.exists()
        assert str(out) in text
        assert "accesses" in text and "segments" in text
        assert "compression" in text
        assert "checksums     OK" in text

    def test_materialize_into_cache_twice(self, capsys, tmp_path):
        args = ["trace", "--kind", "synthetic",
                "--params", '{"variant": "sequential", "n_accesses": 512}',
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0  # second run is a cache hit
        assert capsys.readouterr().out == first

    def test_query_kind(self, capsys, tmp_path):
        params = ('{"grid_side": 4, "tile_side": 4, "workload": "bbox",'
                  ' "n_queries": 3, "seed": 0, "stream_line_bytes": 64}')
        assert main(["trace", "--kind", "query", "--params", params,
                     "--cache-dir", str(tmp_path)]) == 0
        assert "query" in capsys.readouterr().out

    def test_invalid_json_exits_1(self, capsys, tmp_path):
        assert main(["trace", "--kind", "matmul", "--params", "{nope",
                     "--cache-dir", str(tmp_path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_params_exits_1(self, capsys, tmp_path):
        assert main(["trace", "--kind", "matmul", "--params", "[1]",
                     "--cache-dir", str(tmp_path)]) == 1
        assert "JSON object" in capsys.readouterr().err

    def test_missing_parameter_exits_1(self, capsys, tmp_path):
        assert main(["trace", "--kind", "matmul", "--params", '{"n": 8}',
                     "--cache-dir", str(tmp_path)]) == 1
        assert "missing parameter" in capsys.readouterr().err

    def test_unexpected_parameter_exits_1(self, capsys, tmp_path):
        assert main(["trace", "--kind", "synthetic",
                     "--params", '{"variant": "sequential", "bogus": 1}',
                     "--cache-dir", str(tmp_path)]) == 1
        assert "sfc-repro: error:" in capsys.readouterr().err

    def test_unknown_kind_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--kind", "bogus",
                                       "--params", "{}"])

    def test_studies_accept_trace_cache(self, capsys, tmp_path):
        assert main(["mrc", "--n", "16",
                     "--trace-cache", str(tmp_path)]) == 0
        assert "RM" in capsys.readouterr().out
        assert any(tmp_path.iterdir())  # the study populated the cache


class TestErrorHandling:
    """ReproError -> exit 1; anything else escaping -> exit 2."""

    def test_bad_thread_config_exits_1(self, capsys):
        assert main(["predict", "--threads", "3x"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("sfc-repro: error:")

    def test_bad_governor_exits_1(self, capsys):
        assert main(["predict", "--frequency", "performance"]) == 1
        assert "sfc-repro: error:" in capsys.readouterr().err

    def test_bad_scheme_is_unexpected_exits_2(self, capsys):
        # The curve modules raise plain ValueError for unknown schemes —
        # outside the ReproError taxonomy, so the CLI reports it as
        # unexpected.
        assert main(["predict", "--scheme", "zz"]) == 2
        err = capsys.readouterr().err
        assert "unexpected error: ValueError" in err

    def test_resume_without_checkpoint_exits_1(self, capsys):
        assert main(["mrc", "--resume"]) == 1
        assert "--checkpoint" in capsys.readouterr().err

    def test_debug_reraises_repro_error(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            main(["--debug", "predict", "--threads", "3x"])

    def test_debug_reraises_unexpected_error(self):
        with pytest.raises(ValueError):
            main(["--debug", "predict", "--scheme", "zz"])


class TestUnusableCacheDir:
    """A cache directory under a regular file is an expected error: exit 1
    with the one-line message naming the path, serially and in the pool."""

    @pytest.fixture
    def blocked(self, tmp_path):
        (tmp_path / "file").write_text("")
        return str(tmp_path / "file" / "cache")

    def assert_one_line_error(self, capsys, argv, blocked):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("sfc-repro: error:")
        assert err.count("\n") == 1 and blocked in err

    def test_sweep_cache_dir(self, capsys, blocked):
        self.assert_one_line_error(
            capsys, ["sweep", "--cache-dir", blocked], blocked)

    def test_trace_cache_dir(self, capsys, blocked):
        self.assert_one_line_error(capsys, [
            "trace", "--kind", "matmul", "--cache-dir", blocked, "--params",
            '{"n": 16, "scheme_a": "ho", "scheme_b": "ho", "scheme_c": "ho"}',
        ], blocked)

    @pytest.mark.parametrize("workers", [[], ["--workers", "2"]])
    def test_cachegrind_trace_cache(self, capsys, blocked, workers):
        self.assert_one_line_error(capsys, [
            "cachegrind", "--n", "32", "--rows", "2",
            "--trace-cache", blocked, *workers,
        ], blocked)

    def test_mrc_trace_cache(self, capsys, blocked):
        self.assert_one_line_error(
            capsys, ["mrc", "--n", "16", "--trace-cache", blocked], blocked)
