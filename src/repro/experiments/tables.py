"""Table IV: absolute execution times, laid out like the paper.

Rows: sizes 10/11/12 x frequencies {1.2, 1.8, 2.6, od}; columns: single
socket 1/4/8 threads, dual socket 2/8/16 threads; one block per scheme.
"""

from __future__ import annotations

from repro.experiments.configs import (
    FREQUENCIES,
    SCHEMES,
    SIZE_EXPONENTS,
    SampleConfig,
)
from repro.experiments.runner import ExperimentRunner
from repro.experiments.sweep import SweepEngine, resolve_runner

__all__ = ["table4_data", "render_table4"]

_SINGLE = ("1s", "4s", "8s")
_DUAL = ("2d", "8d", "16d")


def _freq_label(freq) -> str:
    return "od" if isinstance(freq, str) else f"{freq:.1f}"


def table4_data(
    runner: ExperimentRunner | None = None, sweep: SweepEngine | None = None
) -> dict:
    """Nested dict: ``data[scheme][size][freq_label][thread_config] -> s``.

    With ``sweep``, the grid is executed by the cached sweep engine
    and the cell loop below only reads the primed memo.
    """
    runner = resolve_runner(runner, sweep)
    data: dict = {}
    for scheme in SCHEMES:
        data[scheme] = {}
        for size in SIZE_EXPONENTS:
            data[scheme][size] = {}
            for freq in FREQUENCIES:
                row = {}
                for tc in _SINGLE + _DUAL:
                    cfg = SampleConfig(scheme, size, freq, tc)
                    row[tc] = runner.run(cfg).seconds
                data[scheme][size][_freq_label(freq)] = row
    return data


def render_table4(
    runner: ExperimentRunner | None = None, sweep: SweepEngine | None = None
) -> str:
    """Text rendering in the paper's Table IV layout."""
    data = table4_data(runner, sweep)
    lines = ["TABLE IV — ABSOLUTE EXECUTION TIMES [s] (modelled)", ""]
    for scheme in SCHEMES:
        lines.append(f"{scheme.upper():3s}        Single Socket           Dual Socket")
        header = (
            f"{'Size':>4s} {'F.':>4s} "
            + " ".join(f"{t:>8s}" for t in ("1", "4", "8"))
            + "  "
            + " ".join(f"{t:>8s}" for t in ("2", "8", "16"))
        )
        lines.append(header)
        for size in SIZE_EXPONENTS:
            for freq in FREQUENCIES:
                fl = _freq_label(freq)
                row = data[scheme][size][fl]
                cells_s = " ".join(f"{row[tc]:8.1f}" for tc in _SINGLE)
                cells_d = " ".join(f"{row[tc]:8.1f}" for tc in _DUAL)
                lines.append(f"{size:>4d} {fl:>4s} {cells_s}  {cells_d}")
        lines.append("")
    return "\n".join(lines)
