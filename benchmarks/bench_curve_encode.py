"""Hilbert index throughput: Lam-Shapiro scan vs composed-LUT batch path.

Run as a script to produce the committed ``BENCH_curve_encode.json``::

    PYTHONPATH=src python benchmarks/bench_curve_encode.py

The paper's central cost claim is that Hilbert index arithmetic is what
eats its locality advantage, so the encoder's throughput is a first-class
perf surface: trace generation for every study funnels through
:meth:`HilbertCurve.encode`.  This benchmark times both implementations
on the coordinate stream a paper-style matmul trace produces — every
(i, j), (i, k), (k, j) pair of an n = 512 problem — plus uniform-random
points at several orders, and records points/second and the batch/scan
ratio.  Decode is timed on the full index domain.

Both paths are exact and bit-identical (``tests/curves/test_hilbert.py``
cross-checks them); the LUT path wins by consuming ``_CHUNK_W`` bit pairs
per composed-table gather instead of ~10 vector ops per pair.  The scan
is a test oracle (``tests/curves/hilbert_oracles.py``), not library code,
so this script puts the repository root on ``sys.path`` to import it.
"""

import json
import platform
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.curves.hilbert import (
    _CHUNK_W,
    hilbert_decode_batch,
    hilbert_encode_batch,
    _pair_luts,
)

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from tests.curves.hilbert_oracles import decode_scan, encode_scan  # noqa: E402
OUT_PATH = ROOT / "BENCH_curve_encode.json"


def matmul_coordinate_stream(n, rows):
    """The (y, x) pairs a naive-matmul trace encodes, concatenated.

    Per output element (i, j) the kernel touches C[i, j], A[i, k] and
    B[k, j] for every k — three coordinate pairs per inner iteration.
    """
    ys, xs = [], []
    for i in rows:
        j = np.arange(n, dtype=np.uint64)
        k = np.arange(n, dtype=np.uint64)
        jj, kk = np.meshgrid(j, k, indexing="ij")
        ii = np.full(jj.size, i, dtype=np.uint64)
        ys += [ii, ii, kk.ravel()]
        xs += [jj.ravel(), kk.ravel(), jj.ravel()]
    return np.concatenate(ys), np.concatenate(xs)


def time_encoder(fn, y, x, reps):
    fn(y, x)  # warm (builds/memoizes LUTs outside the timed region)
    t0 = time.perf_counter()
    for _ in range(reps):
        d = fn(y, x)
    elapsed = (time.perf_counter() - t0) / reps
    return d, {
        "points": int(len(y)),
        "seconds": round(elapsed, 5),
        "points_per_sec": round(len(y) / elapsed, 1),
    }


def run_encode_config(name, y, x, order, reps=5):
    side = 1 << order
    d_scan, scan = time_encoder(lambda a, b: encode_scan(a, b, side), y, x, reps)
    d_batch, batch = time_encoder(
        lambda a, b: hilbert_encode_batch(a, b, order), y, x, reps
    )
    assert np.array_equal(d_scan, d_batch), name
    return {
        "name": name,
        "order": order,
        "scan": scan,
        "batch": batch,
        "speedup": round(batch["points_per_sec"] / scan["points_per_sec"], 1),
    }


def run_decode_config(name, order, reps=5):
    side = 1 << order
    d = np.arange(min(side * side, 1 << 20), dtype=np.uint64)
    _, scan = time_encoder(lambda a, _b: decode_scan(a, side), d, d, reps)
    _, batch = time_encoder(
        lambda a, _b: hilbert_decode_batch(a, order), d, d, reps
    )
    return {
        "name": name,
        "order": order,
        "scan": scan,
        "batch": batch,
        "speedup": round(batch["points_per_sec"] / scan["points_per_sec"], 1),
    }


def build_encode_configs(quick=False):
    rng = np.random.default_rng(42)
    # Quick mode still uses several rows: a one-row stream fits in cache,
    # which flatters the scan path relative to real trace generation.
    rows = list(range(254, 258)) if quick else list(range(252, 258))
    y, x = matmul_coordinate_stream(512, rows)
    configs = [("matmul-n512", y, x, 9)]
    if not quick:
        for order in (6, 10, 14):
            side = 1 << order
            yr = rng.integers(0, side, 2_000_000, dtype=np.uint64)
            xr = rng.integers(0, side, 2_000_000, dtype=np.uint64)
            configs.append((f"uniform-order{order}", yr, xr, order))
    return configs


def run_all(quick=False):
    encode = [
        run_encode_config(name, y, x, order)
        for name, y, x, order in build_encode_configs(quick)
    ]
    decode = [] if quick else [run_decode_config("decode-order10", 10)]
    return {
        "benchmark": "bench_curve_encode",
        "units": "points/second",
        "chunk_width_bit_pairs": _CHUNK_W,
        "lut_entries": len(_pair_luts(_CHUNK_W)[0]),
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": np.__version__,
        },
        "notes": [
            "batch = composed multi-level FSM tables (repro.curves.hilbert), "
            "scan = Lam-Shapiro per-bit-pair reference; both bit-identical "
            "(cross-checked per run and in tests/curves/test_hilbert.py)",
            "matmul-n512 is the coordinate stream of the paper-style trace "
            "generator: the speedup here is what trace generation sees",
        ],
        "encode": encode,
        "decode": decode,
    }


@pytest.mark.slow
def test_batch_encoder_wins_and_agrees():
    results = run_all(quick=True)
    matmul = results["encode"][0]
    # The satellite acceptance bar: >= 5x on the n=512 matmul stream.
    assert matmul["speedup"] >= 5.0
    assert matmul["batch"]["points"] == matmul["scan"]["points"]


def main():
    results = run_all()
    OUT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")
    for c in results["encode"] + results["decode"]:
        print(
            f"{c['name']:>18s}: batch {c['batch']['points_per_sec']:>13,.0f}/s  "
            f"scan {c['scan']['points_per_sec']:>12,.0f}/s  "
            f"speedup {c['speedup']:>5.1f}x"
        )


if __name__ == "__main__":
    main()
