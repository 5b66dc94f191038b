"""Multicore trace-sim throughput: serial loop vs pipelined process pool.

Run as a script to produce the committed ``BENCH_multicore.json``::

    PYTHONPATH=src python benchmarks/bench_multicore_parallel.py

Each workload simulates the naive kernel on the paper's machine
(:data:`SANDY_BRIDGE_E5_2670`) at one of the paper's thread placements
(1s / 2s / 8s / 16d), serial vs :mod:`repro.sim.parallel` with one
worker process per simulated thread.  Every parallel run is asserted
bit-identical to its serial baseline before any rate is reported.

The final workload is the paper-scale point: rows sampled near the
middle of a size-12 (``n = 4096``) problem, the few-rows device the
paper itself uses for its cachegrind experiment.

On few-core hosts the pool cannot win — worker start-up and the
npz-serialized miss streams are pure overhead when every process shares
one CPU — and the JSON records that honestly (``cpu_count`` and a note
live in the platform block, as in ``BENCH_sweep.json``).  A ``pytest -m
slow`` entry runs a reduced version.
"""

import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.sim import SANDY_BRIDGE_E5_2670, MulticoreTraceSim
from repro.trace import MatmulTraceSpec

ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = ROOT / "BENCH_multicore.json"

#: (label, threads, sockets_used) — the paper's placement naming.
PLACEMENTS = [
    ("1s", 1, 1),
    ("2s", 2, 1),
    ("8s", 8, 1),
    ("16d", 16, 2),
]


def _result_key(r):
    def stats(cs):
        return (
            cs.accesses, cs.write_accesses, cs.hits, cs.misses,
            cs.read_misses, cs.write_misses, cs.evictions, cs.writebacks,
            cs.prefetches, cs.tag_accesses.tolist(),
            cs.tag_read_misses.tolist(), cs.tag_write_misses.tolist(),
        )

    return (
        stats(r.l1), stats(r.l2), stats(r.l3),
        r.dram_lines, r.dram_writeback_lines, r.line_bytes,
    )


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def run_placement(label, threads, sockets, n, rows, scheme="mo"):
    """Serial baseline vs parallel engine for one placement."""
    spec = MatmulTraceSpec.uniform(n, scheme)

    def sim(workers):
        return MulticoreTraceSim(
            SANDY_BRIDGE_E5_2670, spec, threads, sockets, workers=workers,
        )

    serial_r, serial_s = _timed(lambda: sim(None).run(rows=rows))
    par_r, par_s = _timed(lambda: sim(threads).run(rows=rows))
    assert _result_key(par_r) == _result_key(serial_r), label

    accesses = serial_r.l1.accesses
    return {
        "placement": label,
        "threads": threads,
        "sockets_used": sockets,
        "n": n,
        "rows_sampled": len(rows),
        "scheme": scheme,
        "accesses": accesses,
        "serial": {
            "seconds": round(serial_s, 4),
            "maccesses_per_sec": round(accesses / serial_s / 1e6, 3),
        },
        "parallel": {
            "workers": threads,
            "seconds": round(par_s, 4),
            "maccesses_per_sec": round(accesses / par_s / 1e6, 3),
        },
        "speedup_parallel_vs_serial": round(serial_s / par_s, 2),
        "bit_identical": True,
    }


def run_all(quick=False):
    if quick:
        small = [(label, t, s, 64, 4) for label, t, s in PLACEMENTS[:2]]
        paper = []
    else:
        small = [(label, t, s, 256, 16) for label, t, s in PLACEMENTS]
        paper = [("8s-paper-size12", 8, 1, 4096, 2)]
    workloads = []
    for label, threads, sockets, n, n_rows in small + paper:
        mid = n // 2
        rows = list(range(mid - n_rows // 2, mid - n_rows // 2 + n_rows))
        workloads.append(run_placement(label, threads, sockets, n, rows))
    return {
        "benchmark": "bench_multicore_parallel",
        "units": "million simulated accesses/second",
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "note": (
                "single-CPU host: all worker processes share one core, so "
                "pool spawn + miss-stream IPC are pure overhead and "
                "speedups below 1x are expected; on a multicore host the "
                "private-cache phase (the dominant cost) scales with "
                "workers"
            ),
        },
        "workloads": workloads,
    }


@pytest.mark.slow
def test_parallel_matches_serial_and_reports_rates():
    results = run_all(quick=True)
    for w in results["workloads"]:
        assert w["bit_identical"]
        assert w["serial"]["seconds"] > 0
        assert w["parallel"]["seconds"] > 0


def main():
    results = run_all()
    OUT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")
    for w in results["workloads"]:
        print(
            f"{w['placement']:>16s} (n={w['n']}, {w['rows_sampled']} rows): "
            f"serial {w['serial']['maccesses_per_sec']:>8.3f} Ma/s  "
            f"parallel(x{w['parallel']['workers']}) "
            f"{w['parallel']['maccesses_per_sec']:>8.3f} Ma/s  "
            f"speedup {w['speedup_parallel_vs_serial']:.2f}x"
        )


if __name__ == "__main__":
    main()
