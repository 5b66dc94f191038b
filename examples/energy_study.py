#!/usr/bin/env python3
"""The paper's headline evaluation, end to end.

Sweeps the 216-point grid of Table III through the calibrated performance
model, prints Table IV, the Figure 4/5/6 series, demonstrates the RAPL
measurement pipeline (15.3 uJ counters sampled at 10 Hz, trapezoidal
integration), and runs the shape-validation claims.

Run:  python examples/energy_study.py
"""

from repro.experiments import (
    ExperimentRunner,
    SampleConfig,
    fig4_speedup,
    fig6_energy_time,
    render_series,
    render_table4,
    validate_all,
)
from repro.perf import power_from_samples, sample_rapl_counter
from repro.sim import PowerMeter


def main() -> None:
    runner = ExperimentRunner()

    print(render_table4(runner))

    print("=== Fig. 4: parallel speedup (dual socket, ondemand) ===")
    for size, series in fig4_speedup(runner).items():
        print(render_series(series, f"Size {size}", "threads", "speedup"))
    print()

    print("=== Fig. 6 c): single socket, size 12 — energy vs time ===")
    series = fig6_energy_time(runner)[("8s", 12)]
    print(render_series(series, "8 threads, 1 socket, 4096x4096",
                        "Energy [J]", "Time [s]"))
    print()

    # --- The measurement chain the paper used, reproduced faithfully:
    # model a run's power, expose it as a quantized wrapping RAPL counter,
    # sample at 10 Hz, derive power, integrate with the trapezoidal rule.
    pred = runner.model.predict("mo", 4096, 2.6, 8, 1)
    ts, raw = sample_rapl_counter(
        pred.power.package_w, duration_s=min(pred.seconds, 30.0)
    )
    log = power_from_samples(ts, raw)
    print("=== RAPL pipeline check (MO, size 12, 8s, 2.6 GHz) ===")
    print(f"modelled package power : {pred.power.package_w:8.1f} W")
    print(f"10 Hz sampled estimate : {log.power_w.mean():8.1f} W")
    print(f"trapezoid energy (30 s window): {log.energy_j:10.1f} J")

    # The paper's 38% figure is "when all cores are utilized": 16d.
    full = runner.model.predict("mo", 4096, 2.6, 16, 2)
    wall = PowerMeter().read(full.power)
    print(f"wall power at full load (WT210 model): {wall.wall_w:7.1f} W; "
          f"CPU+DRAM share {wall.component_fraction:.0%} (paper: ~38%)")
    print()

    print("=== Shape validation against the paper's findings ===")
    for claim in validate_all(runner):
        status = "PASS" if claim.holds else "FAIL"
        print(f"[{status}] {claim.name}")
        print(f"        {claim.detail}")


if __name__ == "__main__":
    main()
