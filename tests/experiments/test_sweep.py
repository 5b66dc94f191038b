"""Cached sweep engine: cache, telemetry, equivalence with the runner."""

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments import ExperimentRunner, SampleConfig, full_grid
from repro.experiments.sweep import (
    CACHE_SCHEMA_VERSION,
    SweepCache,
    SweepEngine,
    calibration_fingerprint,
    resolve_runner,
    sweep_grid,
)
from repro.sim.analytic import DEFAULT_MISS_MODELS, PerformanceModel


SMALL_GRID = full_grid()[:12]


class TestFingerprint:
    def test_stable_across_instances(self):
        assert calibration_fingerprint(PerformanceModel()) == calibration_fingerprint(
            PerformanceModel()
        )

    def test_sensitive_to_miss_model(self):
        from dataclasses import replace

        models = dict(DEFAULT_MISS_MODELS)
        models["rm"] = replace(models["rm"], plateau=models["rm"].plateau * 1.01)
        assert calibration_fingerprint(
            PerformanceModel(miss_models=models)
        ) != calibration_fingerprint(PerformanceModel())

    def test_sensitive_to_overlap_residual(self):
        assert calibration_fingerprint(
            PerformanceModel(overlap_residual=0.3)
        ) != calibration_fingerprint(PerformanceModel())


class TestSweepCache:
    def test_put_get_roundtrip(self, tmp_path):
        model = PerformanceModel()
        cache = SweepCache(tmp_path, calibration_fingerprint(model))
        r = ExperimentRunner(model).run(SMALL_GRID[0])
        assert cache.get(SMALL_GRID[0]) is None
        cache.put(r)
        assert cache.get(SMALL_GRID[0]) == r

    def test_fingerprint_mismatch_is_miss(self, tmp_path):
        model = PerformanceModel()
        fp = calibration_fingerprint(model)
        cache = SweepCache(tmp_path, fp)
        r = ExperimentRunner(model).run(SMALL_GRID[0])
        cache.put(r)
        other = SweepCache(tmp_path, "0" * len(fp))
        assert other.get(SMALL_GRID[0]) is None

    def test_corrupt_entry_is_miss(self, tmp_path):
        model = PerformanceModel()
        cache = SweepCache(tmp_path, calibration_fingerprint(model))
        r = ExperimentRunner(model).run(SMALL_GRID[0])
        cache.put(r)
        path = cache._path(SMALL_GRID[0])
        path.write_text("{not json")
        assert cache.get(SMALL_GRID[0]) is None

    def test_unusable_directory_put_raises_get_misses(self, tmp_path):
        (tmp_path / "file").write_text("")
        model = PerformanceModel()
        cache = SweepCache(tmp_path / "file", calibration_fingerprint(model))
        r = ExperimentRunner(model).run(SMALL_GRID[0])
        with pytest.raises(ExperimentError, match="cannot write sweep cache"):
            cache.put(r)
        assert cache.get(SMALL_GRID[0]) is None

    def test_schema_versioned_layout(self, tmp_path):
        model = PerformanceModel()
        cache = SweepCache(tmp_path, calibration_fingerprint(model))
        cache.put(ExperimentRunner(model).run(SMALL_GRID[0]))
        assert f"v{CACHE_SCHEMA_VERSION}" in str(cache._path(SMALL_GRID[0]))

    def test_get_many_splits_hits_and_misses_in_order(self, tmp_path):
        model = PerformanceModel()
        cache = SweepCache(tmp_path, calibration_fingerprint(model))
        runner = ExperimentRunner(model)
        cached = [SMALL_GRID[0], SMALL_GRID[2]]
        cache.put_many([runner.run(c) for c in cached])
        hits, misses = cache.get_many(SMALL_GRID[:4])
        assert sorted(hits) == sorted(c.key for c in cached)
        assert [c.key for c in misses] == [
            SMALL_GRID[1].key, SMALL_GRID[3].key
        ]

    def test_put_many_get_many_roundtrip(self, tmp_path):
        model = PerformanceModel()
        cache = SweepCache(tmp_path, calibration_fingerprint(model))
        runner = ExperimentRunner(model)
        results = [runner.run(c) for c in SMALL_GRID[:4]]
        cache.put_many(results)
        hits, misses = cache.get_many(SMALL_GRID[:4])
        assert misses == []
        assert all(hits[r.config.key] == r for r in results)


class TestServeRequestKey:
    """Regression: memo/cache keys canonicalize the scheme-candidate SET.

    ``["ho", "mo"]`` and ``["mo", "ho"]`` describe the same advise
    computation; before canonical ordering they hashed to different
    keys, splitting the memoized entry and doubling evaluations."""

    def test_scheme_set_order_hits_the_same_entry(self):
        from repro.serve.schemas import request_key, validate_advise_request

        fp = calibration_fingerprint(PerformanceModel())
        a = validate_advise_request({"schemes": ["ho", "mo"]})
        b = validate_advise_request({"schemes": ["mo", "ho"]})
        c = validate_advise_request({"schemes": ["mo", "ho", "mo"]})
        assert request_key(a, fp) == request_key(b, fp) == request_key(c, fp)

    def test_distinct_scheme_sets_keep_distinct_entries(self):
        from repro.serve.schemas import request_key, validate_advise_request

        fp = calibration_fingerprint(PerformanceModel())
        a = validate_advise_request({"schemes": ["ho", "mo"]})
        b = validate_advise_request({"schemes": ["ho"]})
        assert request_key(a, fp) != request_key(b, fp)


class TestEvaluateBatch:
    def test_matches_runner_point_by_point(self):
        from repro.experiments.sweep import evaluate_batch

        runner = ExperimentRunner()
        out = evaluate_batch(SMALL_GRID[:4], runner)
        assert [r.config.key for r in out] == [c.key for c in SMALL_GRID[:4]]
        assert out == [ExperimentRunner().run(c) for c in SMALL_GRID[:4]]

    def test_step_base_addresses_one_flat_step_space(self):
        from repro.robust import FaultPlan
        from repro.experiments.sweep import evaluate_batch
        from repro.robust.faults import InjectedFault

        plan = FaultPlan.single("transient", worker=0, step=5)
        runner = ExperimentRunner()
        # Steps 0-3: below the scheduled step, no fault.
        evaluate_batch(SMALL_GRID[:4], runner, worker=0, step_base=0,
                       fault_plan=plan)
        # Next batch continues the same step space: its second point is
        # global step 5 and must fire.
        with pytest.raises(InjectedFault):
            evaluate_batch(SMALL_GRID[4:8], runner, worker=0, step_base=4,
                           fault_plan=plan)

    def test_corrupt_fault_punches_a_hole(self):
        from repro.robust import FaultPlan
        from repro.experiments.sweep import evaluate_batch

        plan = FaultPlan.single("corrupt", worker=3, step=1)
        out = evaluate_batch(SMALL_GRID[:3], ExperimentRunner(), worker=3,
                             fault_plan=plan)
        assert out[0] is not None and out[2] is not None
        assert out[1] is None


class TestSerialEquivalence:
    def test_bit_identical_to_run_grid(self, tmp_path):
        serial = ExperimentRunner().run_grid(SMALL_GRID)
        swept = sweep_grid(SMALL_GRID, cache_dir=tmp_path / "c")
        assert len(swept) == len(serial)
        for a, b in zip(serial, swept):  # same values in the same order
            assert a == b

    def test_full_grid_bit_identical(self, tmp_path):
        serial = ExperimentRunner().run_grid()
        swept = sweep_grid(cache_dir=tmp_path / "c")
        assert [r for r in swept] == [r for r in serial]

    def test_duplicate_configs_dedupe(self, tmp_path):
        cfg = SMALL_GRID[0]
        rs = sweep_grid([cfg, cfg, cfg], cache_dir=None)
        assert len(rs) == 1

    def test_no_cache_dir_works(self):
        rs = sweep_grid(SMALL_GRID[:4])
        assert len(rs) == 4


class TestCacheBehaviour:
    def test_second_run_served_from_cache(self, tmp_path):
        cache = tmp_path / "cache"
        e1 = SweepEngine(cache_dir=cache)
        e1.run(SMALL_GRID)
        assert e1.stats.cache_hits == 0
        e2 = SweepEngine(cache_dir=cache)
        rs = e2.run(SMALL_GRID)
        assert e2.stats.cache_hit_rate >= 0.95
        assert rs.get(SMALL_GRID[0]) == ExperimentRunner().run(SMALL_GRID[0])

    def test_recalibration_invalidates(self, tmp_path):
        from dataclasses import replace

        cache = tmp_path / "cache"
        SweepEngine(cache_dir=cache).run(SMALL_GRID)
        models = dict(DEFAULT_MISS_MODELS)
        models["rm"] = replace(models["rm"], center=models["rm"].center * 1.1)
        e = SweepEngine(
            model=PerformanceModel(miss_models=models), cache_dir=cache
        )
        e.run(SMALL_GRID)
        assert e.stats.cache_hits == 0

    def test_resume_from_partial(self, tmp_path):
        partial = ExperimentRunner().run_grid(SMALL_GRID[:5])
        e = SweepEngine(cache_dir=None)
        rs = e.run(SMALL_GRID, resume_from=partial)
        assert len(rs) == len(SMALL_GRID)
        assert e.stats.resumed == 5


class TestTelemetry:
    def test_jsonl_log_records_hit_rate(self, tmp_path):
        cache = tmp_path / "cache"
        SweepEngine(cache_dir=cache).run(SMALL_GRID)
        SweepEngine(cache_dir=cache).run(SMALL_GRID)
        log = cache / "telemetry.jsonl"
        events = [json.loads(line) for line in log.read_text().splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds.count("sweep_start") == 2
        assert kinds.count("sweep_end") == 2
        ends = [e for e in events if e["event"] == "sweep_end"]
        assert ends[0]["cache_hit_rate"] == 0.0
        assert ends[1]["cache_hit_rate"] >= 0.95
        assert ends[1]["points_per_sec"] > 0

    def test_progress_line(self, tmp_path, capsys):
        import sys

        e = SweepEngine(cache_dir=None, progress=True)
        e.run(SMALL_GRID[:4])
        assert "points" in capsys.readouterr().err


class TestValidation:
    def test_invalid_settings_rejected(self):
        with pytest.raises(ExperimentError):
            SweepEngine(measure="nope")


class TestMeasuredMode:
    def test_sampled_energies_close_to_model(self, tmp_path):
        # Short runs only (size 10, fast clocks) keep the 10 Hz chain cheap.
        cfgs = [SampleConfig("rm", 10, 2.6, "8s"), SampleConfig("mo", 10, 2.6, "8s")]
        modelled = ExperimentRunner().run_grid(cfgs)
        sampled = sweep_grid(cfgs, measure="sampled")
        for cfg in cfgs:
            m, s = modelled.get(cfg), sampled.get(cfg)
            assert s.seconds == m.seconds  # only energies are re-measured
            # The chain's inherent end effect trims roughly one sampling
            # interval of energy; beyond that the estimates must agree.
            assert s.package_j == pytest.approx(m.package_j, rel=0.35)
            assert 0 < s.package_j < m.package_j

    def test_sampled_mode_cached_separately(self, tmp_path):
        cache = tmp_path / "cache"
        cfgs = [SampleConfig("rm", 10, 2.6, "8s")]
        sweep_grid(cfgs, cache_dir=cache, measure="model")
        e = SweepEngine(cache_dir=cache, measure="sampled")
        e.run(cfgs)
        assert e.stats.cache_hits == 0  # model-mode entries do not alias


class TestResolveRunner:
    def test_explicit_runner_wins(self):
        r = ExperimentRunner()
        assert resolve_runner(r, None) is r

    def test_default_is_fresh_runner(self):
        assert isinstance(resolve_runner(None, None), ExperimentRunner)

    def test_sweep_primes_runner(self, tmp_path):
        engine = SweepEngine(cache_dir=tmp_path / "c")
        runner = resolve_runner(None, engine)
        # The primed memo already holds the full grid.
        assert runner.run(full_grid()[0]) == ExperimentRunner().run(full_grid()[0])
