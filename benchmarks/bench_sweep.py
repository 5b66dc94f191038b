"""Sweep-engine throughput: serial runner vs sharded workers vs disk cache.

Run as a script to produce the committed ``BENCH_sweep.json``::

    PYTHONPATH=src python benchmarks/bench_sweep.py

Two workloads bracket the engine's operating range:

* ``grid216-model`` — the full Table III grid through the analytic model.
  Each point is microseconds of arithmetic, so this measures the
  engine's *overhead* floor: sharding + process IPC + cache I/O against
  an extremely cheap workload.  On few-core boxes the process pool
  cannot win here and the JSON records that honestly (``cpu_count`` is
  in the platform block).
* ``grid72-sampled`` and ``grid216-sampled`` — the 72 size-10 points
  and the full grid re-measured through the 10 Hz RAPL sampling chain
  (quantized counters, trapezoidal integration).  The counter reads are
  computed in closed form, so a sampled point costs about half a
  millisecond on average (a few milliseconds at size 12): these rows
  show whether the pool or the disk cache still beats recomputing.

Every mode is asserted bit-identical per workload before rates are
reported.  A ``pytest -m slow`` entry runs a reduced version.
"""

import json
import os
import platform
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import ExperimentRunner, SweepEngine, full_grid
from repro.experiments.configs import SampleConfig

ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = ROOT / "BENCH_sweep.json"


def _size10_grid():
    return [c for c in full_grid() if c.size_exp == 10]


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def run_workload(name, configs, measure, workers):
    """Serial baseline, parallel cold-cache, and warm-cache rates."""
    n = len(configs)
    serial_engine = SweepEngine(workers=1, cache_dir=None, measure=measure)
    serial_rs, serial_s = _timed(lambda: serial_engine.run(configs))

    cache_dir = Path(tempfile.mkdtemp(prefix="bench-sweep-"))
    try:
        cold_engine = SweepEngine(workers=workers, cache_dir=cache_dir, measure=measure)
        cold_rs, cold_s = _timed(lambda: cold_engine.run(configs))

        warm_engine = SweepEngine(workers=workers, cache_dir=cache_dir, measure=measure)
        warm_rs, warm_s = _timed(lambda: warm_engine.run(configs))
        warm_hit_rate = warm_engine.stats.cache_hit_rate
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    assert list(cold_rs) == list(serial_rs), name
    assert list(warm_rs) == list(serial_rs), name

    record = {
        "name": name,
        "points": n,
        "measure": measure,
        "workers": workers,
        "serial": {"seconds": round(serial_s, 4), "points_per_sec": round(n / serial_s, 1)},
        "parallel_cold": {"seconds": round(cold_s, 4), "points_per_sec": round(n / cold_s, 1)},
        "cache_warm": {
            "seconds": round(warm_s, 4),
            "points_per_sec": round(n / warm_s, 1),
            "hit_rate": round(warm_hit_rate, 4),
        },
        "speedup_parallel_vs_serial": round(serial_s / cold_s, 2),
        "speedup_warm_cache_vs_serial": round(serial_s / warm_s, 2),
        "speedup_warm_cache_vs_cold": round(cold_s / warm_s, 2),
    }
    return record


def run_all(quick=False):
    workers = max(2, os.cpu_count() or 1)
    if quick:
        workloads = [
            ("grid216-model", full_grid(), "model"),
            ("grid12-sampled", _size10_grid()[:12], "sampled"),
        ]
    else:
        workloads = [
            ("grid216-model", full_grid(), "model"),
            ("grid72-sampled", _size10_grid(), "sampled"),
            ("grid216-sampled", full_grid(), "sampled"),
        ]
    return {
        "benchmark": "bench_sweep",
        "units": "points/second",
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "workloads": [
            run_workload(name, configs, measure, workers)
            for name, configs, measure in workloads
        ],
    }


@pytest.mark.slow
def test_sweep_modes_agree_and_cache_wins():
    results = run_all(quick=True)
    by_name = {w["name"]: w for w in results["workloads"]}
    model = by_name["grid216-model"]
    assert model["cache_warm"]["hit_rate"] >= 0.95
    sampled = by_name["grid12-sampled"]
    assert sampled["cache_warm"]["hit_rate"] >= 0.95
    # Warm cache must beat recomputing the sampling chain outright.
    assert sampled["speedup_warm_cache_vs_cold"] > 1.0


@pytest.mark.slow
def test_parallel_bit_identical_to_serial():
    serial = ExperimentRunner().run_grid()
    swept = SweepEngine(workers=2, cache_dir=None).run()
    assert list(swept) == list(serial)


def main():
    results = run_all()
    OUT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")
    for w in results["workloads"]:
        print(
            f"{w['name']:>16s}: serial {w['serial']['points_per_sec']:>10,.1f} pts/s  "
            f"parallel(x{w['workers']}) {w['parallel_cold']['points_per_sec']:>10,.1f} pts/s  "
            f"warm-cache {w['cache_warm']['points_per_sec']:>10,.1f} pts/s  "
            f"(hit rate {w['cache_warm']['hit_rate']:.0%})"
        )


if __name__ == "__main__":
    main()
