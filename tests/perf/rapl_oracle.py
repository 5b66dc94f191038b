"""The scalar RAPL sampling chain: the oracle for the closed-form sampler.

:func:`scalar_rapl_counter` steps a :class:`~repro.sim.RaplCounter`
deposit by deposit — 16 midpoint sub-steps per sampling interval, a read
at every tick — exactly as :func:`repro.perf.sample_rapl_counter` did
before its reads were computed in closed form.  :func:`scalar_measured`
is the per-domain chain of ``measure="sampled"`` sweeps on top of it.
Both are far too slow for production use and exist only so the closed
form can be checked against them.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.perf import power_from_samples
from repro.perf.sampling import DEFAULT_SAMPLE_HZ
from repro.sim import RAPL_ENERGY_UNIT_J, RaplCounter

SUBSTEPS = 16


def scalar_rapl_counter(
    power_fn,
    duration_s: float,
    sample_hz: float = DEFAULT_SAMPLE_HZ,
    unit_j: float = RAPL_ENERGY_UNIT_J,
) -> tuple[np.ndarray, np.ndarray]:
    """``(timestamps, raw reads)`` of a counter stepped one deposit at a
    time; ``power_fn`` is called with one float per sub-step."""
    counter = RaplCounter(unit_j)
    dt = 1.0 / sample_hz
    n_ticks = int(np.floor(duration_s / dt + 1e-9))
    ticks = [i * dt for i in range(n_ticks + 1)]
    if duration_s - ticks[-1] > 1e-9 * max(1.0, duration_s):
        ticks.append(duration_s)
    timestamps = np.asarray(ticks, dtype=np.float64)
    raw = np.empty(len(ticks), dtype=np.int64)
    raw[0] = counter.read()
    for i in range(1, len(ticks)):
        t0 = ticks[i - 1]
        h = (ticks[i] - t0) / SUBSTEPS
        for k in range(SUBSTEPS):
            counter.deposit(power_fn(t0 + (k + 0.5) * h) * h)
        raw[i] = counter.read()
    return timestamps, raw


def scalar_measured(result, sample_hz: float = DEFAULT_SAMPLE_HZ):
    """``SampleResult`` re-measured through the scalar chain, domain by
    domain, with the same short-run and zero-energy rules as the sweep."""
    duration = result.seconds

    def chain(joules: float) -> float:
        if joules <= 0:
            return joules
        power = joules / duration
        ts, raw = scalar_rapl_counter(lambda t: power, duration, sample_hz)
        if len(ts) < 3:
            return joules
        return power_from_samples(ts, raw).energy_j

    return replace(
        result,
        package_j=chain(result.package_j),
        pp0_j=chain(result.pp0_j),
        dram_j=chain(result.dram_j),
    )
