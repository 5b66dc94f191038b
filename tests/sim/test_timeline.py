"""Phase-resolved power timelines and their sampled integration."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.perf import power_from_samples, sample_rapl_counter
from repro.sim import PerformanceModel, run_timeline


@pytest.fixture(scope="module")
def prediction():
    return PerformanceModel().predict("mo", 2048, "ondemand", 8, 1)


class TestTimeline:
    def test_phases(self, prediction):
        tl = run_timeline(prediction)
        names = [p.name for p in tl.phases]
        assert names == ["governor-ramp", "steady", "idle-tail"]

    def test_duration(self, prediction):
        tl = run_timeline(prediction, idle_tail_s=0.5)
        assert tl.duration_s == pytest.approx(prediction.seconds + 0.5)

    def test_ramp_power_below_steady(self, prediction):
        tl = run_timeline(prediction)
        ramp, steady, idle = tl.phases
        assert ramp.package_w < steady.package_w
        assert idle.package_w < ramp.package_w

    def test_lookup(self, prediction):
        tl = run_timeline(prediction)
        assert tl.package_power(0.01) == tl.phases[0].package_w
        assert tl.package_power(1.0) == tl.phases[1].package_w
        # Past the end: stays at the last (idle) level.
        assert tl.package_power(tl.duration_s + 10) == tl.phases[-1].package_w

    def test_negative_time_rejected(self, prediction):
        tl = run_timeline(prediction)
        with pytest.raises(SimulationError):
            tl.package_power(-1.0)

    def test_no_ramp_option(self, prediction):
        tl = run_timeline(prediction, governor_ramp=False, idle_tail_s=0.0)
        assert [p.name for p in tl.phases] == ["steady"]
        assert tl.duration_s == pytest.approx(prediction.seconds)

    def test_invalid_tail(self, prediction):
        with pytest.raises(SimulationError):
            run_timeline(prediction, idle_tail_s=-1.0)

    def test_dram_power_positive_everywhere(self, prediction):
        tl = run_timeline(prediction)
        for t in (0.01, 1.0, tl.duration_s - 0.01):
            assert tl.dram_power(t) > 0


class TestArrayLookup:
    """Array lookups (one call over every sub-step of a sampled run) must
    pick the same phase as scalar lookups, including at phase ends,
    where a phase covers ``[start, end)``."""

    @staticmethod
    def _phase_at(tl, t):
        # Reference: walk the phases, summing ends in phase order.
        acc = 0.0
        for phase in tl.phases:
            acc += phase.duration_s
            if t < acc:
                return phase
        return tl.phases[-1]

    def _boundary_times(self, tl):
        ts = [0.0, np.nextafter(0.0, 1.0)]
        acc = 0.0
        for phase in tl.phases:
            acc += phase.duration_s
            ts += [np.nextafter(acc, -np.inf), acc, np.nextafter(acc, np.inf)]
        return np.array(ts)

    @pytest.mark.parametrize("ramp", [True, False])
    def test_scalar_and_array_agree_at_boundaries(self, prediction, ramp):
        tl = run_timeline(prediction, governor_ramp=ramp, idle_tail_s=0.5)
        ts = self._boundary_times(tl)
        pkg = tl.package_power(ts)
        dram = tl.dram_power(ts)
        assert pkg.shape == dram.shape == ts.shape
        for t, p, d in zip(ts, pkg, dram):
            phase = self._phase_at(tl, float(t))
            assert tl.package_power(float(t)) == p == phase.package_w
            assert tl.dram_power(float(t)) == d == phase.dram_w

    def test_scalar_returns_float(self, prediction):
        tl = run_timeline(prediction)
        assert type(tl.package_power(1.0)) is float
        assert type(tl.dram_power(1.0)) is float

    def test_array_keeps_shape(self, prediction):
        tl = run_timeline(prediction)
        t = np.linspace(0.0, tl.duration_s + 1.0, 12).reshape(3, 4)
        assert tl.package_power(t).shape == (3, 4)

    def test_negative_time_in_array_rejected(self, prediction):
        tl = run_timeline(prediction)
        with pytest.raises(SimulationError):
            tl.package_power(np.array([0.5, -1e-12]))


class TestSampledIntegration:
    def test_trapezoid_recovers_varying_trace(self, prediction):
        # The paper's full chain against a non-constant power signal:
        # quantized wrapping counter, 10 Hz samples, trapezoid — within
        # 2% of the exact piecewise energy (edges cost a little).
        tl = run_timeline(prediction, idle_tail_s=1.0)
        ts, raw = sample_rapl_counter(tl.package_power, duration_s=tl.duration_s)
        log = power_from_samples(ts, raw)
        assert log.energy_j == pytest.approx(tl.package_energy_j, rel=0.02)

    def test_sampling_sees_falling_edge(self, prediction):
        tl = run_timeline(prediction, idle_tail_s=1.0)
        ts, raw = sample_rapl_counter(tl.package_power, duration_s=tl.duration_s)
        log = power_from_samples(ts, raw)
        # The last samples sit at the idle floor, far below the peak.
        assert log.power_w[-1] < log.power_w.max() / 2
