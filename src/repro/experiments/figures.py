"""Figure data generators: Fig 4 (speedup per scheme), Fig 5 (RM speedup
per frequency), Fig 6 (energy-vs-time scatter) — plus ASCII renderings so
the benchmarks print the same series the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.configs import (
    SCHEMES,
    SIZE_EXPONENTS,
    SampleConfig,
)
from repro.experiments.runner import ExperimentRunner
from repro.experiments.sweep import SweepEngine, resolve_runner

__all__ = [
    "Series",
    "fig4_speedup",
    "fig5_frequency_speedup",
    "fig6_energy_time",
    "render_series",
    "DUAL_SOCKET_POINTS",
]

#: Dual-socket thread counts plotted on Fig 4/5's x-axis.
DUAL_SOCKET_POINTS = ("2d", "8d", "16d")


@dataclass
class Series:
    """One plotted line: label plus (x, y) points."""

    label: str
    x: list[float] = field(default_factory=list)
    y: list[float] = field(default_factory=list)

    def append(self, x: float, y: float) -> None:
        self.x.append(x)
        self.y.append(y)


def fig4_speedup(
    runner: ExperimentRunner | None = None,
    frequency="ondemand",
    sweep: SweepEngine | None = None,
) -> dict[int, list[Series]]:
    """Fig 4: parallel speedup of each scheme, one panel per size.

    Dual-socket configurations (as in the paper's shown panels); speedup is
    against the scheme's own single-thread run.  ``sweep`` routes the grid
    through the cached sweep engine first.
    """
    runner = resolve_runner(runner, sweep)
    panels: dict[int, list[Series]] = {}
    for size in SIZE_EXPONENTS:
        series = []
        for scheme in ("rm", "ho", "mo"):  # legend order of the figure
            s = Series(label=scheme.upper())
            for tc in DUAL_SOCKET_POINTS:
                cfg = SampleConfig(scheme, size, frequency, tc)
                s.append(cfg.threads, runner.speedup(cfg))
            series.append(s)
        panels[size] = series
    return panels


def fig5_frequency_speedup(
    runner: ExperimentRunner | None = None,
    scheme: str = "rm",
    sweep: SweepEngine | None = None,
) -> dict[int, list[Series]]:
    """Fig 5: RM speedup vs thread count, one line per fixed frequency."""
    runner = resolve_runner(runner, sweep)
    panels: dict[int, list[Series]] = {}
    for size in SIZE_EXPONENTS:
        series = []
        for freq in (1.2, 1.8, 2.6):
            s = Series(label=f"{int(freq * 1000)}MHz")
            for tc in DUAL_SOCKET_POINTS:
                cfg = SampleConfig(scheme, size, freq, tc)
                s.append(cfg.threads, runner.speedup(cfg))
            series.append(s)
        panels[size] = series
    return panels


def fig6_energy_time(
    runner: ExperimentRunner | None = None,
    thread_configs: tuple[str, ...] = ("8s", "8d"),
    schemes: tuple[str, ...] = ("rm", "mo"),
    sweep: SweepEngine | None = None,
) -> dict[tuple[str, int], list[Series]]:
    """Fig 6: energy [J] (x) vs execution time [s] (y) per RAPL domain.

    One panel per (thread config, size); within a panel one line per
    (scheme, domain), each line's 4 points being the frequency settings —
    exactly the sample layout of the paper's Fig. 6.  HO is omitted, "as
    the computational overheads of the HO cases are substantially larger"
    (Section IV-B).
    """
    runner = resolve_runner(runner, sweep)
    panels: dict[tuple[str, int], list[Series]] = {}
    for tc in thread_configs:
        for size in SIZE_EXPONENTS:
            series = []
            for scheme in schemes:
                lines = {
                    "Packages": Series(label=f"{scheme.upper()} - Packages"),
                    "Power Planes": Series(label=f"{scheme.upper()} - Power Planes"),
                    "DRAM": Series(label=f"{scheme.upper()} - DRAM"),
                }
                for freq in (1.2, 1.8, 2.6, "ondemand"):
                    r = runner.run(SampleConfig(scheme, size, freq, tc))
                    lines["Packages"].append(r.package_j, r.seconds)
                    lines["Power Planes"].append(r.pp0_j, r.seconds)
                    lines["DRAM"].append(r.dram_j, r.seconds)
                series.extend(lines.values())
            panels[(tc, size)] = series
    return panels


def render_series(series: list[Series], title: str, xlabel: str, ylabel: str) -> str:
    """Plain-text table of a figure panel's series."""
    lines = [title, f"  x = {xlabel}, y = {ylabel}"]
    for s in series:
        pts = "  ".join(f"({x:.6g}, {y:.6g})" for x, y in zip(s.x, s.y))
        lines.append(f"  {s.label:22s} {pts}")
    return "\n".join(lines)
