"""Periodic power sampling and trapezoidal energy integration.

The paper's measurement chain (Section III-B): RAPL MSRs are read at 10 Hz,
power estimates are derived from consecutive counter deltas, and "energy
estimates are obtained from the power logs through numerical integration,
by applying the trapezoidal rule.  The intervals of the time integration
were obtained from the timestamps of the power estimates."  This module
implements exactly that chain over simulated power traces, including the
counter quantization and wraparound of :mod:`repro.sim.rapl`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.sim.rapl import _COUNTER_MOD, RAPL_ENERGY_UNIT_J, unwrap_counter

__all__ = ["PowerLog", "sample_rapl_counter", "trapezoid_energy", "power_from_samples"]

#: The paper's sampling rate.
DEFAULT_SAMPLE_HZ = 10.0

#: Midpoint-rule sub-steps per sampling interval for time-varying power.
_SUBSTEPS = 16


def _resolve_trapezoid(ns=np):
    """Pick the trapezoidal integrator available in this NumPy.

    ``np.trapezoid`` arrived in NumPy 2.0 and ``np.trapz`` was removed in
    the same release, while the project supports ``numpy>=1.24`` — so
    neither name can be referenced unconditionally.
    """
    fn = getattr(ns, "trapezoid", None) or getattr(ns, "trapz", None)
    if fn is None:  # pragma: no cover - no known NumPy lacks both
        raise SimulationError("NumPy provides neither trapezoid nor trapz")
    return fn


_trapezoid = _resolve_trapezoid()


@dataclass(frozen=True)
class PowerLog:
    """Timestamped power estimates (one RAPL domain)."""

    timestamps_s: np.ndarray
    power_w: np.ndarray

    def __post_init__(self):
        if len(self.timestamps_s) != len(self.power_w):
            raise SimulationError("timestamps and power arrays differ in length")

    @property
    def energy_j(self) -> float:
        """Trapezoidal-rule energy of the log (the paper's estimator)."""
        return trapezoid_energy(self.timestamps_s, self.power_w)


def sample_rapl_counter(
    power,
    duration_s: float,
    sample_hz: float = DEFAULT_SAMPLE_HZ,
    unit_j: float = RAPL_ENERGY_UNIT_J,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate reading a RAPL counter at a fixed rate during a run.

    ``power`` is either a constant draw [W] or a callable giving
    instantaneous power [W] at an *array* of times; a callable is called
    once, on the midpoints of 16 sub-steps per sampling interval, and may
    return a scalar for a constant draw.  The counter accumulates the
    energy quantized to ``unit_j`` with 32-bit wraparound and is read
    every ``1 / sample_hz`` seconds, plus a closing read at
    ``duration_s``.  Returns ``(timestamps, raw register samples)``.

    The reads are computed in closed form rather than deposit by deposit:
    ``floor(power * t / unit_j) mod 2**32`` for a constant draw, and the
    quantized cumulative sum of the midpoint-rule sub-step energies for a
    callable.  A :class:`~repro.sim.RaplCounter` fed the same sub-step
    deposits one at a time reads within one unit of these values.

    Raises :class:`~repro.errors.SimulationError` for a non-positive
    duration, rate or unit, and for power that is negative, NaN or
    infinite anywhere on the run.
    """
    if duration_s <= 0 or sample_hz <= 0:
        raise SimulationError("duration and sample rate must be positive")
    if unit_j <= 0:
        raise SimulationError(f"energy unit must be positive, got {unit_j}")
    dt = 1.0 / sample_hz
    n_ticks = int(np.floor(duration_s / dt + 1e-9))
    timestamps = np.arange(n_ticks + 1) * dt
    # The run does not end on a sample tick in general: close the log with
    # a final read at duration_s so the trailing partial interval's energy
    # is deposited rather than silently dropped.
    if duration_s - timestamps[-1] > 1e-9 * max(1.0, duration_s):
        timestamps = np.append(timestamps, duration_s)
    if callable(power):
        h = np.diff(timestamps)[:, None] / _SUBSTEPS
        mid = timestamps[:-1, None] + (np.arange(_SUBSTEPS) + 0.5) * h
        watts = _checked_watts(np.broadcast_to(power(mid), mid.shape))
        energy_j = np.cumsum((watts * h).sum(axis=1))
        units = np.floor(np.concatenate(([0.0], energy_j)) / unit_j)
    else:
        units = np.floor(_checked_watts(power) * timestamps / unit_j)
    return timestamps, np.fmod(units, _COUNTER_MOD).astype(np.int64)


def _checked_watts(watts) -> np.ndarray:
    w = np.asarray(watts, dtype=np.float64)
    if not (np.isfinite(w).all() and (w >= 0).all()):
        raise SimulationError("power must be finite and non-negative")
    return w


def power_from_samples(
    timestamps_s: np.ndarray,
    raw_samples: np.ndarray,
    unit_j: float = RAPL_ENERGY_UNIT_J,
) -> PowerLog:
    """Derive a power log from raw counter samples (the paper's method).

    Power over interval ``[t_i, t_{i+1}]`` is the unwrapped energy delta
    over the interval length, timestamped at the interval midpoint.
    """
    ts = np.asarray(timestamps_s, dtype=np.float64)
    if len(ts) != len(raw_samples):
        raise SimulationError("timestamps and samples differ in length")
    if len(ts) < 2:
        raise SimulationError("need at least two samples to estimate power")
    energy = unwrap_counter(np.asarray(raw_samples), unit_j)
    dt = np.diff(ts)
    if np.any(dt <= 0):
        raise SimulationError("timestamps must be strictly increasing")
    power = np.diff(energy) / dt
    mid = (ts[:-1] + ts[1:]) / 2.0
    return PowerLog(timestamps_s=mid, power_w=power)


def trapezoid_energy(timestamps_s: np.ndarray, power_w: np.ndarray) -> float:
    """Trapezoidal-rule integral of a power log [J]."""
    ts = np.asarray(timestamps_s, dtype=np.float64)
    pw = np.asarray(power_w, dtype=np.float64)
    if len(ts) != len(pw):
        raise SimulationError("timestamps and power arrays differ in length")
    if len(ts) < 2:
        return 0.0
    return float(_trapezoid(pw, ts))
