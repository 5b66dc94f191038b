"""One-shot reproduction report.

Renders every reproduced artifact — Table IV, the figure series, the
cachegrind and hardware-assist studies, the EDP/roofline analyses and the
shape-validation verdicts — into a single markdown document, so a fresh
checkout can regenerate the experiment record (`EXPERIMENTS.md`'s numbers)
with one call: ``sfc-repro report`` or
:func:`generate_report`.
"""

from __future__ import annotations

from repro.experiments.cachegrind_study import run_cachegrind_study
from repro.experiments.energy_analysis import (
    edp_table,
    render_edp_table,
    render_roofline_table,
    roofline_table,
)
from repro.experiments.figures import (
    fig4_speedup,
    fig5_frequency_speedup,
    fig6_energy_time,
    render_series,
)
from repro.experiments.hardware_assist import run_hardware_assist_study
from repro.experiments.mrc_study import render_mrc, run_mrc_study
from repro.experiments.runner import ExperimentRunner
from repro.experiments.sensitivity import render_sensitivity, sensitivity_sweep
from repro.experiments.scaling_study import render_scaling_table, scaling_table
from repro.experiments.sweep import SweepEngine, resolve_runner
from repro.experiments.tables import render_table4
from repro.experiments.validation import validate_all

__all__ = ["generate_report"]


def _section(title: str, body: str) -> str:
    return f"## {title}\n\n```\n{body}\n```\n"


def generate_report(
    runner: ExperimentRunner | None = None,
    fast: bool = False,
    sweep: SweepEngine | None = None,
) -> str:
    """Render the full reproduction report as markdown.

    ``fast=True`` shrinks the trace-driven cachegrind study (for tests);
    the modelled artifacts are always complete.  ``sweep`` executes the
    216-point grid through the cached sweep engine up front, so every
    section below reads from the primed runner.
    """
    runner = resolve_runner(runner, sweep)
    parts = [
        "# Reproduction report — Reissmann/Jahre/Meyer 2014",
        "",
        "Generated by `repro.experiments.report.generate_report`.",
        "",
    ]

    parts.append(_section("Table IV — absolute execution times", render_table4(runner)))

    fig4 = "\n\n".join(
        render_series(series, f"Size {size}", "threads", "speedup")
        for size, series in fig4_speedup(runner).items()
    )
    parts.append(_section("Figure 4 — parallel speedup per scheme", fig4))

    fig5 = "\n\n".join(
        render_series(series, f"Size {size}", "threads", "speedup")
        for size, series in fig5_frequency_speedup(runner).items()
    )
    parts.append(_section("Figure 5 — RM speedup vs clock frequency", fig5))

    fig6 = "\n\n".join(
        render_series(series, f"{tc}, size {size}", "Energy [J]", "Time [s]")
        for (tc, size), series in fig6_energy_time(runner).items()
    )
    parts.append(_section("Figure 6 — energy vs time (8s/8d)", fig6))

    cg = run_cachegrind_study(
        n=64 if fast else 128,
        n_rows=3 if fast else 5,
        schemes=("rm", "mo", "ho"),
    )
    parts.append(_section("Section IV-A — cachegrind LL-miss study", cg.summary()))

    hw = run_hardware_assist_study(runner=runner)
    parts.append(_section("Section VI — hardware-assist what-if", hw.summary()))

    parts.append(
        _section("Energy-delay optima", render_edp_table(edp_table(runner)))
    )
    parts.append(
        _section("Roofline placements", render_roofline_table(roofline_table(runner)))
    )
    parts.append(
        _section("Strong scaling", render_scaling_table(scaling_table(runner)))
    )

    parts.append(
        _section(
            "Capacity vs conflict misses (Mattson decomposition)",
            render_mrc(run_mrc_study(n=32 if fast else 64)),
        )
    )
    parts.append(
        _section(
            "Parameter sensitivity of the headline findings",
            render_sensitivity(sensitivity_sweep()),
        )
    )

    verdicts = "\n".join(
        f"[{'PASS' if c.holds else 'FAIL'}] {c.name}: {c.detail}"
        for c in validate_all(runner)
    )
    parts.append(_section("Shape validation", verdicts))
    return "\n".join(parts)
