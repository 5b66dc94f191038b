"""Analytic model: miss curves, paper-shape predictions, calibration."""

import pytest

from repro.errors import CalibrationError, SimulationError
from repro.sim import (
    DEFAULT_MISS_MODELS,
    MissModelParams,
    PerformanceModel,
    calibrate_miss_model,
    misses_per_iteration,
)

SIZES = {10: 1024, 11: 2048, 12: 4096}


@pytest.fixture(scope="module")
def model():
    return PerformanceModel()


class TestMissCurves:
    def test_in_cache_tiny(self):
        for scheme in ("rm", "mo", "ho"):
            assert misses_per_iteration(scheme, 0.3) < 0.01

    def test_streaming_plateaus(self):
        # RM misses roughly every iteration; MO/HO an order less.
        assert misses_per_iteration("rm", 8.0) == pytest.approx(1.02, rel=0.1)
        assert misses_per_iteration("mo", 8.0) < 0.2
        assert misses_per_iteration("ho", 8.0) < 0.2

    def test_monotone_in_u(self):
        for scheme in ("rm", "mo", "ho"):
            vals = [misses_per_iteration(scheme, u) for u in (0.5, 1, 2, 4, 8, 16)]
            assert vals == sorted(vals)

    def test_paper_cachegrind_magnitude(self):
        # Section IV-A: ~0.2 LL misses per iteration for MO at size 12
        # (17.06e6 misses over 5 rows x 4096^2 iterations).
        u_size12 = 3 * 8 * 4096**2 / (20 * 1024 * 1024)
        assert misses_per_iteration("mo", u_size12) == pytest.approx(0.2, rel=0.3)

    def test_unknown_scheme(self):
        with pytest.raises(SimulationError):
            misses_per_iteration("zz", 1.0)

    def test_invalid_u(self):
        with pytest.raises(SimulationError):
            misses_per_iteration("rm", 0.0)


class TestTable4Shape(object):
    """The headline shape targets from DESIGN.md."""

    def test_in_cache_rm_wins(self, model):
        n = SIZES[10]
        for threads, sockets in ((1, 1), (8, 1), (16, 2)):
            rm = model.predict("rm", n, 2.6, threads, sockets).seconds
            mo = model.predict("mo", n, 2.6, threads, sockets).seconds
            ho = model.predict("ho", n, 2.6, threads, sockets).seconds
            assert rm < mo < ho

    def test_out_of_cache_mo_overtakes_rm(self, model):
        # Table IV: at sizes 11/12 with high thread counts, MO beats RM.
        for size in (11, 12):
            n = SIZES[size]
            rm = model.predict("rm", n, 2.6, 16, 2).seconds
            mo = model.predict("mo", n, 2.6, 16, 2).seconds
            assert mo < rm

    def test_ho_order_of_magnitude_slower_single_thread(self, model):
        n = SIZES[12]
        ho = model.predict("ho", n, 2.6, 1, 1).seconds
        mo = model.predict("mo", n, 2.6, 1, 1).seconds
        assert 5 < ho / mo < 12

    def test_memory_bound_frequency_collapse(self, model):
        # Fig 5 shape: for size 12 RM, 2.17x more clock buys < 1.35x speed;
        # in-cache size 10 scales nearly proportionally.
        t12 = {f: model.predict("rm", SIZES[12], f, 8, 1).seconds for f in (1.2, 2.6)}
        t10 = {f: model.predict("rm", SIZES[10], f, 8, 1).seconds for f in (1.2, 2.6)}
        assert t12[1.2] / t12[2.6] < 1.35
        assert t10[1.2] / t10[2.6] > 1.9

    def test_dual_socket_slower_same_thread_count_memory_bound(self, model):
        # Table IV: 8d slower than 8s for memory-bound RM.
        s8 = model.predict("rm", SIZES[12], 2.6, 8, 1).seconds
        d8 = model.predict("rm", SIZES[12], 2.6, 8, 2).seconds
        assert d8 > s8

    def test_ondemand_fastest(self, model):
        for scheme in ("rm", "mo"):
            od = model.predict(scheme, SIZES[11], "ondemand", 8, 1).seconds
            fixed = model.predict(scheme, SIZES[11], 2.6, 8, 1).seconds
            assert od <= fixed

    def test_absolute_times_within_40_percent_of_paper(self, model):
        paper = {
            ("rm", 10, 1, 1): 3.3,
            ("rm", 11, 1, 1): 91.9,
            ("rm", 12, 8, 1): 153.0,
            ("mo", 10, 1, 1): 6.2,
            ("mo", 12, 1, 1): 514.6,
            ("ho", 11, 1, 1): 409.9,
            ("ho", 12, 16, 2): 219.8,
        }
        for (scheme, size, p, soc), t_paper in paper.items():
            t = model.predict(scheme, SIZES[size], 2.6, p, soc).seconds
            assert t == pytest.approx(t_paper, rel=0.4), (scheme, size, p, soc)


class TestEnergyShape:
    def test_energy_proportional_to_time_in_cache(self, model):
        # Fig 6 a/d: for the in-cache size, faster is also less energy.
        preds = {
            f: model.predict("rm", SIZES[10], f, 8, 1) for f in (1.2, 1.8, 2.6)
        }
        times = [preds[f].seconds for f in (1.2, 1.8, 2.6)]
        energies = [preds[f].energy.package_j for f in (1.2, 1.8, 2.6)]
        assert times == sorted(times, reverse=True)
        assert energies == sorted(energies, reverse=True)

    def test_memory_bound_energy_knee(self, model):
        # Fig 6 c/f: above the memory clock, RM trades disproportionate
        # energy for little time.
        p18 = model.predict("rm", SIZES[12], 1.8, 8, 1)
        p26 = model.predict("rm", SIZES[12], 2.6, 8, 1)
        time_gain = p18.seconds / p26.seconds
        energy_cost = p26.energy.package_j / p18.energy.package_j
        assert time_gain < 1.1
        assert energy_cost > time_gain

    def test_mo_keeps_improving_with_frequency(self, model):
        # Fig 6: "the MO curve does not equally saturate the memory system,
        # and continues to attain improvements with rising frequency."
        p18 = model.predict("mo", SIZES[12], 1.8, 8, 1)
        p26 = model.predict("mo", SIZES[12], 2.6, 8, 1)
        assert p18.seconds / p26.seconds > 1.25

    def test_dram_energy_small(self, model):
        p = model.predict("rm", SIZES[12], 2.6, 8, 1)
        assert p.energy.dram_j < p.energy.pp0_j

    def test_ondemand_worse_energy_out_of_cache(self, model):
        od = model.predict("rm", SIZES[12], "ondemand", 8, 1)
        fixed = model.predict("rm", SIZES[12], 2.6, 8, 1)
        assert od.seconds <= fixed.seconds
        assert od.energy.package_j > fixed.energy.package_j


class TestPredictionRecord:
    def test_fields_consistent(self, model):
        p = model.predict("mo", 2048, 1.8, 4, 1)
        assert p.seconds >= max(p.compute_seconds, p.memory_seconds)
        assert 0 <= p.compute_fraction <= 1
        assert p.llc_misses > 0
        assert p.freq_ghz == 1.8
        assert p.capacity_ratio == pytest.approx(3 * 8 * 2048**2 / (20 * 2**20))

    def test_validation(self, model):
        with pytest.raises(SimulationError):
            model.predict("rm", 1024, 2.6, 0, 1)
        with pytest.raises(SimulationError):
            model.predict("rm", 1024, 2.6, 1, 5)
        with pytest.raises(SimulationError):
            model.predict("rm", 1024, 2.6, 16, 1)  # 16 threads, one socket


class TestCalibration:
    @pytest.mark.slow
    def test_refit_matches_trace_sim(self):
        # Re-fit MO against the exact simulator at small sizes and check
        # the fitted curve reproduces the defaults' character: low floor,
        # plateau an order below RM's, transition near u ~ 3.5.
        params = calibrate_miss_model("mo", l3_bytes=32 * 1024, n_values=(16, 32, 64, 128))
        assert params.floor < 0.02
        assert 0.05 < params.plateau < 0.35
        assert 1.5 < params.center < 8.0

    def test_params_validation(self):
        p = MissModelParams(floor=0.0, plateau=1.0, center=3.0, width=0.1)
        with pytest.raises(SimulationError):
            p.mpi(0)

    def test_default_models_cover_paper_schemes(self):
        assert set(DEFAULT_MISS_MODELS) == {"rm", "mo", "ho"}

    def test_defaults_are_not_degenerate(self):
        assert all(not p.degenerate_fit for p in DEFAULT_MISS_MODELS.values())

    def test_calibration_is_warning_free(self):
        # curve_fit used to leak OptimizeWarning (singular covariance)
        # into every calibration run; it is now captured and recorded as
        # a flag on the result instead.
        import warnings

        pytest.importorskip("scipy")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = calibrate_miss_model(
                "mo", l3_bytes=32 * 1024, n_values=(16, 32)
            )
        assert isinstance(params.degenerate_fit, bool)

    def test_rows_past_the_matrix_refused_up_front(self, monkeypatch):
        # Each size simulates rows n//2 - 1 .. n//2 + sample_rows - 1:
        # n=16 holds 8 sampled rows, so 12 is refused before any size
        # is simulated, n=32's included.
        from repro.sim.multicore import MulticoreTraceSim

        def refuse(*args, **kwargs):
            raise AssertionError("a simulation ran")

        monkeypatch.setattr(MulticoreTraceSim, "run", refuse)
        with pytest.raises(CalibrationError, match="sample_rows"):
            calibrate_miss_model("mo", n_values=(32, 16), sample_rows=12)

    def test_rows_up_to_the_last_run(self):
        pytest.importorskip("scipy")
        params = calibrate_miss_model(
            "rm", l3_bytes=32 * 1024, n_values=(15, 16), sample_rows=8
        )
        assert params.floor >= 0.0

    def test_degenerate_fit_counted_in_metrics(self, tmp_path):
        from repro import obs

        pytest.importorskip("scipy")
        with obs.ObsSession(metrics=tmp_path / "m.json"):
            params = calibrate_miss_model(
                "mo", l3_bytes=32 * 1024, n_values=(16, 32)
            )
            counted = obs.OBS.metrics.counter_value(
                "calibrate.degenerate_fits", scheme="mo"
            )
        # Two sample points cannot constrain a three-parameter sigmoid:
        # the covariance is singular, so the flag and counter must fire.
        assert params.degenerate_fit
        assert counted == 1
