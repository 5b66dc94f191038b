"""Property-based tests for the closed-form RAPL sampler (Hypothesis).

:func:`repro.perf.sample_rapl_counter` computes every counter read in
closed form; the oracle steps a :class:`~repro.sim.RaplCounter` one
midpoint sub-step at a time (``tests/perf/rapl_oracle.py``).  Over
constant, ramp and sine power, run lengths with and without a partial
last interval, rates of 1-100 Hz, and draws large enough to wrap the
32-bit register, the two must produce the same timestamps and reads no
more than one energy unit apart.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from repro.perf import sample_rapl_counter  # noqa: E402
from tests.perf.rapl_oracle import scalar_rapl_counter  # noqa: E402

_MOD = 1 << 32

watts = st.floats(0.0, 5000.0)


@st.composite
def power_signals(draw):
    """``(power for the sampler, scalar power_fn for the oracle)``."""
    kind = draw(st.sampled_from(["number", "constant", "ramp", "sine"]))
    base = draw(watts)
    if kind == "number":
        return base, lambda t: base
    if kind == "constant":
        return (lambda t: base), (lambda t: base)
    if kind == "ramp":
        slope = draw(st.floats(0.0, 500.0))
        fn = lambda t: base + slope * t
    else:
        amp = draw(st.floats(0.0, 1.0)) * base
        omega = draw(st.floats(0.01, 10.0))
        fn = lambda t: base + amp * np.sin(omega * t)
    return fn, fn


_WRAPPING = 5000.0  # W; 20 s of it wraps the 65.7 kJ register once


@settings(deadline=None)
@example(
    signal=(_WRAPPING, lambda t: _WRAPPING), duration_s=20.0, sample_hz=10.0
)
@example(
    signal=(lambda t: 500.0 * t, lambda t: 500.0 * t),
    duration_s=19.97,
    sample_hz=100.0,
)
@given(
    signal=power_signals(),
    duration_s=st.floats(1e-3, 20.0),
    sample_hz=st.floats(1.0, 100.0),
)
def test_reads_within_one_unit_of_scalar_counter(signal, duration_s, sample_hz):
    power, power_fn = signal
    ts, raw = sample_rapl_counter(power, duration_s, sample_hz)
    ts0, raw0 = scalar_rapl_counter(power_fn, duration_s, sample_hz)
    np.testing.assert_array_equal(ts, ts0)
    assert raw.dtype == np.int64 and raw.min() >= 0 and raw.max() < _MOD
    gap = (raw - raw0) % _MOD
    assert np.all((gap <= 1) | (gap == _MOD - 1)), np.max(np.minimum(gap, _MOD - gap))
