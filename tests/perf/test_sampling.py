"""10 Hz sampling + trapezoidal integration (paper Section III-B)."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.perf import (
    PowerLog,
    power_from_samples,
    sample_rapl_counter,
    trapezoid_energy,
)
from repro.sim import RAPL_ENERGY_UNIT_J
from tests.perf.rapl_oracle import scalar_measured, scalar_rapl_counter


class TestTrapezoid:
    def test_constant_power(self):
        ts = np.linspace(0, 10, 101)
        assert trapezoid_energy(ts, np.full(101, 50.0)) == pytest.approx(500.0)

    def test_linear_ramp(self):
        ts = np.linspace(0, 2, 201)
        # integral of P = 100*t over [0,2] is 200 J; trapezoid is exact for
        # linear integrands.
        assert trapezoid_energy(ts, 100 * ts) == pytest.approx(200.0)

    def test_short_logs(self):
        assert trapezoid_energy(np.array([0.0]), np.array([5.0])) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(SimulationError):
            trapezoid_energy(np.array([0, 1]), np.array([1.0]))


class TestTrapezoidCompat:
    """The integrator must resolve on both NumPy 1.x (trapz only) and
    2.x (trapezoid only) despite the numpy>=1.24 pin."""

    def test_resolves_on_current_numpy(self):
        from repro.perf.sampling import _resolve_trapezoid

        fn = _resolve_trapezoid()
        assert fn(np.array([1.0, 1.0]), np.array([0.0, 2.0])) == pytest.approx(2.0)

    def test_prefers_trapezoid_falls_back_to_trapz(self):
        from types import SimpleNamespace

        from repro.perf.sampling import _resolve_trapezoid

        new = SimpleNamespace(trapezoid=lambda y, x: "new", trapz=lambda y, x: "old")
        old = SimpleNamespace(trapz=lambda y, x: "old")
        assert _resolve_trapezoid(new)(None, None) == "new"
        assert _resolve_trapezoid(old)(None, None) == "old"

    def test_neither_available_raises(self):
        from types import SimpleNamespace

        from repro.perf.sampling import _resolve_trapezoid

        with pytest.raises(SimulationError):
            _resolve_trapezoid(SimpleNamespace())


class TestTailEnergy:
    """Regression: the sampler used to stop at the last whole tick, so the
    energy between floor(duration*hz)/hz and duration_s was never counted
    (10 W over 1.05 s deposited only 10.0 J)."""

    def test_counter_sees_full_duration(self):
        from repro.sim import unwrap_counter

        ts, raw = sample_rapl_counter(lambda t: 10.0, duration_s=1.05)
        assert ts[-1] == pytest.approx(1.05)
        total = unwrap_counter(raw)[-1]
        # Ground truth 10.5 J, recovered up to one counter quantum.
        assert abs(total - 10.5) <= 2 * RAPL_ENERGY_UNIT_J

    def test_trapezoid_estimate_includes_tail_interval(self):
        ts, raw = sample_rapl_counter(lambda t: 10.0, duration_s=1.05)
        log = power_from_samples(ts, raw)
        # Midpoint timestamps span [dt/2, (1.0+1.05)/2]: the estimator's
        # inherent end effect remains, but the tail interval is now in.
        expected = 10.0 * (log.timestamps_s[-1] - log.timestamps_s[0])
        assert log.energy_j == pytest.approx(expected, rel=1e-3)
        assert log.energy_j > 9.5  # was 9.0 before the fix

    def test_aligned_duration_unchanged(self):
        ts, raw = sample_rapl_counter(lambda t: 10.0, duration_s=1.0, sample_hz=10)
        assert len(ts) == 11
        assert ts[-1] == pytest.approx(1.0)

    def test_varying_power_tail(self):
        # Non-aligned duration with a ramp: counter total matches the
        # analytic integral of P = 20*t over [0, 2.53] = 10*2.53^2.
        from repro.sim import unwrap_counter

        ts, raw = sample_rapl_counter(lambda t: 20.0 * t, duration_s=2.53)
        total = unwrap_counter(raw)[-1]
        assert total == pytest.approx(10 * 2.53**2, rel=1e-3)


class TestPipeline:
    def test_constant_power_recovered(self):
        ts, raw = sample_rapl_counter(lambda t: 80.0, duration_s=5.0)
        log = power_from_samples(ts, raw)
        np.testing.assert_allclose(log.power_w, 80.0, rtol=1e-3)
        assert log.energy_j == pytest.approx(80.0 * 4.9, rel=0.03)

    def test_varying_power_energy_close_to_truth(self):
        # The paper's estimator: 10 Hz samples + trapezoid. Against a
        # smoothly varying power trace the estimate lands within ~2%.
        power = lambda t: 60 + 30 * np.sin(t)
        ts, raw = sample_rapl_counter(power, duration_s=20.0)
        log = power_from_samples(ts, raw)
        true = 60 * 19.9 + 30 * (np.cos(0.05) - np.cos(19.95))
        assert log.energy_j == pytest.approx(true, rel=0.02)

    def test_sampling_rate_respected(self):
        ts, raw = sample_rapl_counter(lambda t: 10.0, duration_s=1.0, sample_hz=10)
        assert len(ts) == 11
        np.testing.assert_allclose(np.diff(ts), 0.1)

    def test_counter_wrap_handled(self):
        # High power for long enough to wrap the 32-bit register
        # (2^32 * 15.3 uJ ~ 65.7 kJ): 10 kW for 10 s deposits ~100 kJ.
        ts, raw = sample_rapl_counter(lambda t: 10_000.0, duration_s=10.0)
        assert raw.max() < 2**32
        log = power_from_samples(ts, raw)
        assert log.energy_j == pytest.approx(10_000.0 * 9.9, rel=0.01)

    def test_quantization_visible_at_tiny_power(self):
        # Power below one unit per interval produces stepped readings but
        # conserves energy in aggregate.
        ts, raw = sample_rapl_counter(
            lambda t: RAPL_ENERGY_UNIT_J * 3, duration_s=10.0
        )
        log = power_from_samples(ts, raw)
        assert log.energy_j == pytest.approx(RAPL_ENERGY_UNIT_J * 3 * 9.9, rel=0.1)

    def test_validation(self):
        with pytest.raises(SimulationError):
            sample_rapl_counter(lambda t: 1.0, duration_s=0)
        with pytest.raises(SimulationError):
            sample_rapl_counter(1.0, duration_s=1.0, unit_j=0.0)
        with pytest.raises(SimulationError):
            power_from_samples(np.array([0.0]), np.array([0]))
        with pytest.raises(SimulationError):
            power_from_samples(np.array([0.0, 0.0]), np.array([0, 1]))
        with pytest.raises(SimulationError):
            PowerLog(np.array([0.0, 1.0]), np.array([1.0]))


class TestNonFinitePower:
    """Regression: NaN power used to escape as a bare ValueError and inf
    as OverflowError; a closed form would read both as a silent 0."""

    BAD = (float("nan"), float("inf"), float("-inf"), -1.0)

    @pytest.mark.parametrize("watts", BAD)
    def test_constant_power_rejected(self, watts):
        with pytest.raises(SimulationError):
            sample_rapl_counter(watts, duration_s=1.0)

    @pytest.mark.parametrize("watts", BAD)
    def test_callable_power_rejected(self, watts):
        with pytest.raises(SimulationError):
            sample_rapl_counter(lambda t: watts, duration_s=1.0)

    def test_one_bad_substep_rejected(self):
        spike = lambda t: np.where(np.abs(t - 0.5) < 0.01, np.nan, 5.0)
        with pytest.raises(SimulationError):
            sample_rapl_counter(spike, duration_s=1.0)

    def test_zero_power_reads_zero(self):
        _, raw = sample_rapl_counter(0.0, duration_s=1.0)
        assert not raw.any()


def _oracle_gap(power, duration, hz=10.0, oracle_fn=None):
    """Largest read difference from the stepped counter (timestamps must
    be identical)."""
    ts, raw = sample_rapl_counter(power, duration, hz)
    ts0, raw0 = scalar_rapl_counter(oracle_fn or power, duration, hz)
    np.testing.assert_array_equal(ts, ts0)
    return np.abs(raw - raw0).max()


class TestAgainstScalarOracle:
    """The closed-form reads against a RaplCounter stepped deposit by
    deposit (``tests/perf/rapl_oracle.py``)."""

    @pytest.mark.parametrize(
        "watts, duration, hz",
        [(10.0, 1.05, 10), (80.0, 5.0, 10), (10_000.0, 10.0, 10),
         (RAPL_ENERGY_UNIT_J * 3, 10.0, 10), (137.2, 3.3, 37)],
    )
    def test_constant_power_reads_equal(self, watts, duration, hz):
        assert _oracle_gap(watts, duration, hz, lambda t: watts) == 0

    def test_callable_constant_equals_number(self):
        ts, raw = sample_rapl_counter(lambda t: 80.0, 5.0)
        ts1, raw1 = sample_rapl_counter(80.0, 5.0)
        np.testing.assert_array_equal(ts, ts1)
        np.testing.assert_array_equal(raw, raw1)

    @pytest.mark.parametrize("field", ["package_power", "dram_power"])
    def test_timeline_reads_equal(self, field):
        from repro.sim import PerformanceModel, run_timeline

        tl = run_timeline(
            PerformanceModel().predict("mo", 2048, "ondemand", 8, 1),
            idle_tail_s=1.0,
        )
        assert _oracle_gap(getattr(tl, field), tl.duration_s) == 0

    def test_ramp_reads_equal(self):
        assert _oracle_gap(lambda t: 20.0 * t, 20.0) == 0

    @pytest.mark.parametrize(
        "power",
        [lambda t: 60 + 30 * np.sin(t), lambda t: RAPL_ENERGY_UNIT_J * 3],
        ids=["sine", "unit-boundaries"],
    )
    def test_reads_within_one_unit(self, power):
        # The closed form sums the same sub-step deposits in a different
        # order, so a read whose energy sits on a unit boundary (here:
        # exactly 3 units per second) may land one unit off.
        assert _oracle_gap(power, 20.0) <= 1


class TestSweepChainOracle:
    """``measure="sampled"`` results are bit-identical to the scalar
    chain: the closed form reads exactly what the stepped counter read on
    every constant-power grid chain."""

    @pytest.mark.parametrize(
        "size_exps, n_points",
        [((10,), 72), pytest.param((10, 11, 12), 216, marks=pytest.mark.slow)],
        ids=["size10", "full-grid"],
    )
    def test_bit_identical(self, size_exps, n_points):
        from repro.experiments.configs import full_grid
        from repro.experiments.runner import ExperimentRunner
        from repro.experiments.sweep import _measured_result

        results = ExperimentRunner().run_grid(
            [c for c in full_grid() if c.size_exp in size_exps]
        )
        assert len(results) == n_points
        for r in results:
            assert _measured_result(r, 10.0) == scalar_measured(r, 10.0)
