"""Cache-simulator throughput: reference loop vs each replay backend.

Run as a script to produce the committed ``BENCH_cache_sim.json``::

    PYTHONPATH=src python benchmarks/bench_cache_sim.py

Each config streams the same matmul trace (the paper's reference stream)
through the reference :class:`~repro.sim.cache.Cache` loop — what the
``"python"`` backend runs on set-associative levels — and through what
:func:`~repro.sim.fastcache.make_cache` builds for every other available
backend (:mod:`repro.sim.backends`), recording accesses/second for each.
A backend whose level *is* the reference loop gets no column of its own.
The reference loop is time-boxed: on configs where it is orders of
magnitude slower (the fully-associative Mattson geometry, where its
directory scan is O(working set) per access) its rate is measured on the
prefix it completes within the box and marked ``"complete": false`` in
the JSON — the speedup is a rate ratio either way.

The config set tracks the perf trajectory across PRs:

* ``ll-setassoc-*`` — the 20 MB 20-way LLC of the paper's machine.  The
  reference loop and the compiled stream-replay kernel are both O(assoc)
  per access here, so the win is the native constant, not a complexity
  class.
* ``ll-fullyassoc-rm`` — the same capacity fully associative, the
  geometry of Mattson capacity studies (ABL-MRC).  Row-major's deep
  reuse distances make the reference scan ~80 µs/access while the
  offline stack-distance path is unaffected: this is the headline
  speedup and the reason paper-sized problems are now simulable exactly.
  Every backend, ``"python"`` included, takes that offline path.
* ``d1-setassoc-mo`` — a 64-set L1.

A ``pytest -m slow`` entry runs a reduced version and asserts every
column agrees with the reference while the compiled kernel actually wins.
"""

import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.sim import Cache, CacheSpec, available_backends, make_cache
from repro.trace.matmul_trace import MatmulTraceSpec, naive_matmul_trace

ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = ROOT / "BENCH_cache_sim.json"

#: Wall-clock budget for the reference loop per config.
REFERENCE_TIMEBOX_S = 60.0


def matmul_line_chunks(n, scheme, rows, line_bytes=64, cols_per_chunk=512):
    """Pre-generate a matmul trace as (lines, is_write, tags) chunks.

    Chunk size is a per-config tuning knob: the set-associative kernel
    wants large chunks (amortizing its per-call overhead), while the
    fully-associative offline pass wants chunks whose scratch arrays stay
    cache-resident, so smaller ones.
    """
    spec = MatmulTraceSpec.uniform(n, scheme)
    shift = np.uint64(line_bytes.bit_length() - 1)
    return [
        (c.addr >> shift, c.is_write, c.tag)
        for c in naive_matmul_trace(spec, rows=rows, cols_per_chunk=cols_per_chunk)
    ]


def time_engine(cache, chunks, timebox=None):
    """Feed chunks until done or the timebox expires; return a record."""
    done = 0
    t0 = time.perf_counter()
    for lines, is_write, tags in chunks:
        cache.access_lines(lines, is_write, tags)
        done += len(lines)
        if timebox is not None and time.perf_counter() - t0 > timebox:
            break
    elapsed = time.perf_counter() - t0
    total = sum(len(c[0]) for c in chunks)
    return {
        "accesses_timed": done,
        "seconds": round(elapsed, 4),
        "accesses_per_sec": round(done / elapsed, 1),
        "complete": done == total,
        "misses": cache.stats.misses,
    }


def run_config(name, cache_spec, trace_args, timebox=REFERENCE_TIMEBOX_S):
    n, scheme, rows, cols_per_chunk = trace_args
    chunks = matmul_line_chunks(
        n, scheme, rows, cache_spec.line_bytes, cols_per_chunk
    )
    accesses = sum(len(c[0]) for c in chunks)
    fast = {}
    for backend in available_backends():
        warm = make_cache(cache_spec, backend=backend)
        if isinstance(warm, Cache):
            continue  # this backend runs the reference loop itself
        # Warm one chunk first so compiled backends pay their one-time
        # build/JIT outside the timed region.
        warm.access_lines(*chunks[0])
        fast[backend] = time_engine(
            make_cache(cache_spec, backend=backend), chunks
        )
    ref = time_engine(Cache(cache_spec), chunks, timebox=timebox)
    speedup = {
        b: round(r["accesses_per_sec"] / ref["accesses_per_sec"], 1)
        for b, r in fast.items()
    }
    record = {
        "name": name,
        "cache": {
            "size_bytes": cache_spec.size_bytes,
            "line_bytes": cache_spec.line_bytes,
            "assoc": cache_spec.assoc,
            "n_sets": cache_spec.n_sets,
        },
        "trace": {
            "kind": "naive-matmul",
            "n": n,
            "scheme": scheme,
            "rows": len(rows),
            "cols_per_chunk": cols_per_chunk,
            "accesses": accesses,
        },
        "fast": fast,
        "reference": ref,
        "speedup": speedup,
        "best_backend": max(speedup, key=speedup.get) if speedup else None,
    }
    if ref["complete"]:
        for backend, r in fast.items():
            if r["complete"]:
                assert r["misses"] == ref["misses"], (name, backend)
    return record


def build_configs(quick=False):
    """(name, cache spec, (n, scheme, rows)) per benchmark entry."""
    ll = CacheSpec("LL", 20 * 1024 * 1024, 64, 20)
    ll_fa = CacheSpec("LLfa", 20 * 1024 * 1024, 64, 20 * 1024 * 1024 // 64)
    d1 = CacheSpec("D1", 32 * 1024, 64, 8)
    if quick:
        return [
            ("ll-setassoc-mo", ll, (512, "mo", list(range(252, 256)), 512)),
            ("ll-fullyassoc-rm", ll_fa, (512, "rm", [255], 256)),
        ]
    rows20 = list(range(246, 266))  # 20 middle rows of n=512: 10.5M accesses
    return [
        ("ll-setassoc-mo", ll, (512, "mo", rows20, 512)),
        ("ll-setassoc-rm", ll, (512, "rm", rows20, 512)),
        # 2 middle rows of n=2048: 16.8M accesses whose B working set
        # (524K lines) overflows the 327K-line cache, so the reference
        # directory scan runs at full depth while the offline pass does
        # not care.  This is the Mattson-geometry headline.
        ("ll-fullyassoc-rm", ll_fa, (2048, "rm", [1023, 1024], 256)),
        ("d1-setassoc-mo", d1, (512, "mo", rows20, 512)),
    ]


def run_all(quick=False, timebox=REFERENCE_TIMEBOX_S):
    return {
        "benchmark": "bench_cache_sim",
        "units": "accesses/second",
        "reference_timebox_seconds": timebox,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "numpy": np.__version__,
        },
        "backends": available_backends(),
        "notes": [
            "'reference' is the Cache loop, which the python backend runs "
            "on set-associative levels; 'fast' and 'speedup' are keyed by "
            "the other backends, each timing what make_cache(spec, "
            "backend=...) builds",
            "compiled backends replay in stream order through one kernel; "
            "the fully-associative config takes the offline Mattson path "
            "on every backend, python included",
        ],
        "configs": [
            run_config(name, spec, trace, timebox)
            for name, spec, trace in build_configs(quick)
        ],
    }


@pytest.mark.slow
def test_fast_engine_wins_and_agrees():
    results = run_all(quick=True, timebox=20.0)
    by_name = {c["name"]: c for c in results["configs"]}
    sa = by_name["ll-setassoc-mo"]
    assert sa["reference"]["complete"]
    for backend, r in sa["fast"].items():
        assert r["complete"], backend
        assert r["misses"] == sa["reference"]["misses"], backend
        # Only compiled backends get a set-associative column, and each
        # must clear the 10x bar.
        assert sa["speedup"][backend] > 10.0, backend
    fa = by_name["ll-fullyassoc-rm"]
    assert "python" in fa["fast"]
    for backend, r in fa["fast"].items():
        assert r["complete"], backend
        assert fa["speedup"][backend] > 10.0, backend


def main():
    results = run_all()
    OUT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")
    for c in results["configs"]:
        ref = c["reference"]
        note = "" if ref["complete"] else f" (ref time-boxed @ {ref['accesses_timed']:,})"
        for backend, r in c["fast"].items():
            print(
                f"{c['name']:>20s} [{backend:>5s}]: "
                f"fast {r['accesses_per_sec']:>12,.0f}/s  "
                f"ref {ref['accesses_per_sec']:>10,.0f}/s  "
                f"speedup {c['speedup'][backend]:>7.1f}x"
                f"  [{c['trace']['accesses']:,} accesses]{note}"
            )


if __name__ == "__main__":
    main()
