"""FIG6: energy-vs-time scatter (8s/8d, package / power plane / DRAM).

Also times the RAPL measurement chain itself (counter emulation, 10 Hz
sampling, trapezoidal integration) and cross-checks the WT210 wall-power
share the paper reports.
"""

from repro.experiments import ExperimentRunner, fig6_energy_time, render_series
from repro.perf import power_from_samples, sample_rapl_counter, trapezoid_energy
from repro.sim import PowerMeter


def test_fig6_series(benchmark, report):
    def build():
        return fig6_energy_time(ExperimentRunner())

    panels = benchmark(build)
    labels = {
        ("8s", 10): "a) Single Socket - Size 10",
        ("8s", 11): "b) Single Socket - Size 11",
        ("8s", 12): "c) Single Socket - Size 12",
        ("8d", 10): "d) Dual Socket - Size 10",
        ("8d", 11): "e) Dual Socket - Size 11",
        ("8d", 12): "f) Dual Socket - Size 12",
    }
    text = [
        render_series(panels[key], f"Fig 6 {label}", "Energy [J]", "Time [s]")
        for key, label in labels.items()
    ]
    report("FIG 6 — ENERGY AND TIME SAMPLES (8s and 8d)", "\n\n".join(text))


def test_rapl_pipeline(benchmark, runner, report):
    pred = runner.model.predict("rm", 2048, 2.6, 8, 1)

    def pipeline():
        ts, raw = sample_rapl_counter(
            pred.power.package_w, duration_s=pred.seconds
        )
        log = power_from_samples(ts, raw)
        return trapezoid_energy(log.timestamps_s, log.power_w)

    energy = benchmark(pipeline)
    truth = pred.power.package_w * pred.seconds
    wall = PowerMeter().read(runner.model.predict("mo", 4096, 2.6, 16, 2).power)
    report(
        "FIG 6 — RAPL/WT210 MEASUREMENT CHAIN",
        f"trapezoid estimate {energy:,.1f} J vs truth {truth:,.1f} J "
        f"({abs(energy - truth) / truth:.2%} error)\n"
        f"full-load wall power {wall.wall_w:.0f} W, CPU+DRAM share "
        f"{wall.component_fraction:.0%} (paper: ~38%)",
    )
