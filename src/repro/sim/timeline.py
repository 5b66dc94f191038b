"""Phase-resolved power timelines for a modelled run.

The paper derives power from 10 Hz RAPL samples; on real hardware the
trace is not flat — the ondemand governor ramps the clock up over its
sampling periods at the start of a run, and the package drops to idle
power the instant the computation finishes.  This module turns a
:class:`~repro.sim.analytic.RunPrediction` into a piecewise power
function reproducing those phases, so the sampling pipeline
(:mod:`repro.perf.sampling`) integrates a realistically *varying* signal
and its trapezoid-vs-truth error can be quantified (see
``tests/sim/test_timeline.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.sim.analytic import RunPrediction
from repro.sim.config import MachineSpec, SANDY_BRIDGE_E5_2670
from repro.sim.energy import PowerModelParams, power_breakdown

__all__ = ["PowerPhase", "PowerTimeline", "run_timeline"]

#: Linux ondemand sampling interval at HZ=100 scaled by the default
#: sampling_down_factor — the governor reaches the top P-state within a
#: few tens of milliseconds under full load.
GOVERNOR_RAMP_SECONDS = 0.08


@dataclass(frozen=True)
class PowerPhase:
    """One constant-power segment of a run."""

    name: str
    duration_s: float
    package_w: float
    pp0_w: float
    dram_w: float


@dataclass(frozen=True)
class PowerTimeline:
    """Piecewise-constant power trace of one run."""

    phases: tuple[PowerPhase, ...]

    @property
    def duration_s(self) -> float:
        return sum(p.duration_s for p in self.phases)

    def package_power(self, t: float | np.ndarray) -> float | np.ndarray:
        """Instantaneous package power at time(s) ``t`` (idle after the end).

        ``t`` may be a float or an array; the result has its shape.
        """
        return self._lookup(t, "package_w")

    def dram_power(self, t: float | np.ndarray) -> float | np.ndarray:
        """Instantaneous DRAM power at time(s) ``t``."""
        return self._lookup(t, "dram_w")

    def _lookup(self, t, field: str):
        t = np.asarray(t, dtype=np.float64)
        if (t < 0).any():
            raise SimulationError(f"time must be non-negative, got {t.min()}")
        # Phase i covers [end[i-1], end[i]); cumsum adds in phase order.
        ends = np.cumsum([p.duration_s for p in self.phases])
        idx = np.minimum(
            np.searchsorted(ends, t, side="right"), len(self.phases) - 1
        )
        watts = np.array([getattr(p, field) for p in self.phases])[idx]
        return float(watts) if watts.ndim == 0 else watts

    @property
    def package_energy_j(self) -> float:
        """Exact energy of the piecewise trace (ground truth for tests)."""
        return sum(p.package_w * p.duration_s for p in self.phases)


def run_timeline(
    pred: RunPrediction,
    machine: MachineSpec = SANDY_BRIDGE_E5_2670,
    governor_ramp: bool = True,
    idle_tail_s: float = 0.5,
    params: PowerModelParams | None = None,
) -> PowerTimeline:
    """Build the piecewise power trace of a predicted run.

    Phases: an optional governor ramp at a reduced clock (only meaningful
    for ondemand runs, but modelled for all — fixed-frequency runs get a
    ramp of zero length), the steady phase at the predicted power, and an
    idle tail at package floor power (so sampled logs include the falling
    edge, as the paper's 10 Hz logs did).
    """
    if idle_tail_s < 0:
        raise SimulationError("idle_tail_s must be non-negative")
    phases = []
    steady = pred.seconds
    if governor_ramp and steady > GOVERNOR_RAMP_SECONDS:
        ramp_freq = min(machine.frequencies_ghz)
        ramp_power = power_breakdown(
            machine,
            ramp_freq,
            pred.threads,
            pred.sockets_used,
            pred.compute_fraction,
            pred.demand_gbps,
            params,
        )
        phases.append(
            PowerPhase(
                "governor-ramp",
                GOVERNOR_RAMP_SECONDS,
                ramp_power.package_w,
                ramp_power.pp0_w,
                ramp_power.dram_w,
            )
        )
        steady -= GOVERNOR_RAMP_SECONDS
    phases.append(
        PowerPhase(
            "steady",
            steady,
            pred.power.package_w,
            pred.power.pp0_w,
            pred.power.dram_w,
        )
    )
    if idle_tail_s > 0:
        idle = power_breakdown(
            machine, min(machine.frequencies_ghz), 1, pred.sockets_used,
            0.0, 0.0, params,
        )
        # All cores parked: package floor is static/idle draw only.
        p = params or PowerModelParams()
        floor = pred.sockets_used * (
            p.uncore_static_w + machine.cores_per_socket * p.core_idle_w
        ) + (machine.sockets - pred.sockets_used) * (
            p.uncore_static_w + machine.cores_per_socket * p.core_idle_w
        )
        phases.append(
            PowerPhase("idle-tail", idle_tail_s, floor, 0.0, idle.dram_w)
        )
    return PowerTimeline(tuple(phases))
