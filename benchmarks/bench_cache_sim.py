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
  At 327,680 ways every backend, ``"python"`` included, takes that
  offline path.
* ``d1-setassoc-mo`` — a 64-set L1.

The ``"crossover"`` block times the two paths of a fully-associative
(one-set) level against each other: the compiled kernel, O(assoc) per
access, and the Mattson pass, O(N log N) per chunk at any associativity.
It sweeps 8 to 4096 ways over two streams, each per scheme and cut as the
studies cut them: the report's Section IV-A D1 input (n=128, 5 middle
rows) and the n=512 stream (2 middle rows).  Every point asserts that the
two paths agree on misses, evictions and writebacks.  The largest swept
associativity at which each compiled kernel is no slower than Mattson on
every stream is recorded next to
:data:`~repro.sim.fastcache.FULLY_ASSOC_KERNEL_MAX_WAYS`, the routing
threshold, which takes the value that held in every sweep taken (on the
n=512 row-major stream the paths tie from 1024 ways, so single sweeps
scatter above it).

``pytest -m slow`` runs reduced versions: the configs assert every
column agrees with the reference while the compiled kernel actually
wins; the crossover sweep asserts agreement only, at every associativity
and on every available backend, with no timing.
"""

import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.sim import Cache, CacheSpec, FastCache, available_backends, make_cache
from repro.sim.fastcache import FULLY_ASSOC_KERNEL_MAX_WAYS
from repro.trace.matmul_trace import MatmulTraceSpec, naive_matmul_trace

ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = ROOT / "BENCH_cache_sim.json"

#: Wall-clock budget for the reference loop per config.
REFERENCE_TIMEBOX_S = 60.0

#: Associativities of the crossover sweep.
CROSSOVER_WAYS = tuple(1 << k for k in range(3, 13))  # 8 .. 4096

#: Chunk width of the crossover streams: the studies' own
#: (``naive_matmul_trace``'s default).
STUDY_COLS_PER_CHUNK = 64


def matmul_line_chunks(n, scheme, rows, line_bytes=64, cols_per_chunk=512):
    """Pre-generate a matmul trace as (lines, is_write, tags) chunks.

    ``cols_per_chunk`` columns of one row make one chunk, that is one
    ``access_lines`` call.  The configs pick it per geometry: the kernel
    amortizes its per-call overhead over large chunks, and the Mattson
    pass, whose scratch arrays grow with the chunk, is given smaller
    ones.  The crossover sweep uses :data:`STUDY_COLS_PER_CHUNK` instead,
    since it times the streams the studies replay.
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


def one_set_level(ways, backend, mattson):
    """A fully-associative level on the path the caller names.

    The routing threshold would pick the path by ``ways``; the sweep
    needs both paths at every associativity, so it overrides the
    decision :class:`FastCache` made when it was built.
    """
    level = FastCache(CacheSpec(f"FA{ways}", ways * 64, 64, ways), backend=backend)
    level._mattson = mattson
    return level


def time_level(level, chunks):
    """Seconds to replay ``chunks``, and the counts the paths must share."""
    t0 = time.perf_counter()
    for lines, is_write, tags in chunks:
        level.access_lines(lines, is_write, tags)
    elapsed = time.perf_counter() - t0
    st = level.stats
    return elapsed, (st.misses, st.evictions, st.writebacks)


def crossover_streams(quick=False):
    """(name, n, scheme, rows) per crossover stream."""
    report_rows = list(range(62, 67))  # run_cachegrind_study(n=128, n_rows=5)
    schemes = ("rm",) if quick else ("rm", "mo", "ho")
    return [
        *(("report-d1", 128, s, report_rows) for s in ("rm", "mo", "ho")),
        *(("n512", 512, s, [255, 256]) for s in schemes),
    ]


def run_crossover(quick=False, repeats=5):
    """Time the kernel and the Mattson pass on one-set levels.

    Each repeat replays the stream once per path, back to back, into
    fresh levels; a point records each path's median time and the median
    of the per-repeat Mattson/kernel ratios, so a slow spell on the host
    weighs on both sides of a ratio.  The python backend's kernel
    (un-jitted) is not swept: that backend always takes the Mattson pass
    at one set.
    """
    compiled = [b for b in available_backends() if b != "python"]
    streams = []
    for name, n, scheme, rows in crossover_streams(quick):
        chunks = matmul_line_chunks(n, scheme, rows, 64, STUDY_COLS_PER_CHUNK)
        for backend in compiled:  # build outside the timed region
            one_set_level(8, backend, mattson=False).access_lines(*chunks[0])
        points = []
        for ways in CROSSOVER_WAYS:
            mattson_s = []
            kernel_s = {b: [] for b in compiled}
            ratios = {b: [] for b in compiled}
            for _ in range(repeats):
                t, counts = time_level(
                    one_set_level(ways, "python", mattson=True), chunks
                )
                mattson_s.append(t)
                for backend in compiled:
                    tk, got = time_level(
                        one_set_level(ways, backend, mattson=False), chunks
                    )
                    assert got == counts, (name, scheme, ways, backend, got, counts)
                    kernel_s[backend].append(tk)
                    ratios[backend].append(t / tk)
            points.append({
                "ways": ways,
                "misses": counts[0],
                "evictions": counts[1],
                "writebacks": counts[2],
                "mattson_s": round(float(np.median(mattson_s)), 5),
                "kernel_s": {
                    b: round(float(np.median(v)), 5) for b, v in kernel_s.items()
                },
                "kernel_speedup": {
                    b: round(float(np.median(v)), 2) for b, v in ratios.items()
                },
            })
        streams.append({
            "name": name,
            "trace": {
                "kind": "naive-matmul",
                "n": n,
                "scheme": scheme,
                "rows": len(rows),
                "cols_per_chunk": STUDY_COLS_PER_CHUNK,
                "accesses": sum(len(c[0]) for c in chunks),
            },
            "points": points,
        })
    no_slower = {}
    for backend in compiled:
        no_slower[backend] = None
        for i, ways in enumerate(CROSSOVER_WAYS):
            if any(st["points"][i]["kernel_speedup"][backend] < 1.0 for st in streams):
                break
            no_slower[backend] = ways
    return {
        "ways": list(CROSSOVER_WAYS),
        "repeats": repeats,
        "timing": "seconds per stream, median of the repeats; kernel_speedup "
        "is the median of the per-repeat Mattson/kernel time ratios",
        "threshold": FULLY_ASSOC_KERNEL_MAX_WAYS,
        "kernel_no_slower_up_to": no_slower,
        "streams": streams,
    }


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
            "compiled backends replay set-associative levels, and "
            "fully-associative ones of at most 'crossover.threshold' ways, "
            "in stream order through one kernel; the python backend, and "
            "every backend on the 327,680-way ll-fullyassoc-rm config, take "
            "the offline Mattson path",
            "'crossover' times both one-set paths per stream; "
            "'kernel_no_slower_up_to' is the largest swept associativity at "
            "which that kernel was no slower than Mattson on every stream, "
            "the rule the routing threshold was chosen by",
        ],
        "configs": [
            run_config(name, spec, trace, timebox)
            for name, spec, trace in build_configs(quick)
        ],
        "crossover": run_crossover(quick),
    }


@pytest.mark.slow
def test_fast_engine_wins_and_agrees():
    by_name = {
        name: run_config(name, spec, trace, timebox=20.0)
        for name, spec, trace in build_configs(quick=True)
    }
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


@pytest.mark.slow
def test_crossover_paths_agree():
    # run_crossover asserts agreement at every point; timings are not
    # checked, so the leg holds on any runner.
    crossover = run_crossover(quick=True, repeats=1)
    swept = [p["ways"] for st in crossover["streams"] for p in st["points"]]
    assert set(swept) == set(CROSSOVER_WAYS)
    n512 = [st for st in crossover["streams"] if st["name"] == "n512"]
    # The n=512 stream overflows even the widest level.
    assert all(p["evictions"] > 0 for st in n512 for p in st["points"])


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
    xo = results["crossover"]
    for st in xo["streams"]:
        for p in st["points"]:
            speedups = "  ".join(
                f"{b} {v:5.2f}x" for b, v in p["kernel_speedup"].items()
            )
            print(
                f"{st['name']:>10s} {st['trace']['scheme']} "
                f"{p['ways']:>5d} ways: mattson {p['mattson_s'] * 1e3:8.1f} ms"
                f"  kernel {speedups}"
            )
    print(
        f"kernel no slower up to {xo['kernel_no_slower_up_to']} ways; "
        f"routing threshold {xo['threshold']}"
    )


if __name__ == "__main__":
    main()
