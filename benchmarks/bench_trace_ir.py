"""Trace-IR pipeline: cached mmap-streamed traces vs per-worker regeneration.

Run as a script to produce the committed ``BENCH_trace_ir.json``::

    PYTHONPATH=src python benchmarks/bench_trace_ir.py

Three views of the columnar trace IR (:mod:`repro.trace.ir`):

* **Study legs** — the paper-scale multicore study (naive kernel on
  :data:`SANDY_BRIDGE_E5_2670`, 8 threads, table-driven Hilbert operands,
  C replay kernel) end-to-end in three modes: ``legacy``
  (each pool worker regenerates its trace slice), ``cold`` (first run
  against an empty trace cache: each worker builds, encodes and
  publishes its missing shards while replaying them) and ``warm``
  (cache hit: workers mmap-stream the shared file).  The committed
  ``BENCH_trace_ir.json`` predates the worker-side build and the one
  Hilbert encoder: its cold leg is a serial build in the parent
  (one-level ``holut`` loop) followed by a streaming pass.  Every
  leg runs in its own subprocess so ``getrusage(RUSAGE_CHILDREN)``
  isolates that leg's peak *worker* RSS, and every leg's full
  :class:`HierarchyResult` key is asserted bit-identical before any
  rate is reported.
* **Codec legs** — trace generation vs IR encode vs IR decode
  throughput per curve scheme, plus the on-disk compression ratio
  against the raw 10 B/access columns.  Decode must outrun generation
  for the cache to be worth anything; this records by how much.
* **IPC residue** — the worker→parent L2-miss residue as a checksummed
  IR frame (:func:`pack_miss_stream`) vs the npz-serialized arrays the
  parallel engine used to ship, on a representative residue stream.

Without the C library (:mod:`repro._clib`) the reference-loop
simulation dominates everything (see ``BENCH_multicore.json``); the C
kernel is what makes trace generation the bottleneck the cache removes,
so the study legs skip where the library does not load.
"""

import argparse
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import _clib

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_PATH = ROOT / "BENCH_trace_ir.json"

#: The study shape: the paper's 8-threads-one-socket placement, mid rows.
THREADS, SOCKETS, WORKERS = 8, 1, 2
STUDY_SCHEME = "holut"
STUDY_POINTS = [
    ("8s-paper-size12", 4096),
    ("8s-paper-size13", 8192),
]
CODEC_SCHEMES = ("mo", "ho", "holut")


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


def run_leg(mode: str, cache_dir: str, n: int) -> dict:
    """One study leg; meant to run in a fresh subprocess (see module doc)."""
    from repro.sim import SANDY_BRIDGE_E5_2670, MulticoreTraceSim
    from repro.trace import MatmulTraceSpec

    spec = MatmulTraceSpec.uniform(n, STUDY_SCHEME)
    sim = MulticoreTraceSim(
        SANDY_BRIDGE_E5_2670, spec, THREADS, SOCKETS, workers=WORKERS,
        trace_cache=None if mode == "legacy" else cache_dir,
    )
    t0 = time.perf_counter()
    result = sim.run(rows=[n // 2, n // 2 + 1])
    seconds = time.perf_counter() - t0
    return {
        "mode": mode,
        "seconds": round(seconds, 3),
        "worker_peak_rss_kb": resource.getrusage(
            resource.RUSAGE_CHILDREN
        ).ru_maxrss,
        "accesses": result.l1.accesses,
        "result_key": repr(_result_key(result)),
    }


def _spawn_leg(mode: str, cache_dir: str, n: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--leg", mode, "--cache-dir", cache_dir, "--n", str(n)],
        capture_output=True, text=True, env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} leg failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_study(tmp_root: Path, points=STUDY_POINTS) -> list[dict]:
    workloads = []
    for label, n in points:
        cache_dir = tmp_root / f"cache-{label}"
        legacy = _spawn_leg("legacy", str(cache_dir), n)
        cold = _spawn_leg("cold", str(cache_dir), n)  # builds the cache
        warm = _spawn_leg("warm", str(cache_dir), n)  # pure hit path
        keys = {leg["result_key"] for leg in (legacy, cold, warm)}
        assert len(keys) == 1, f"IR legs diverged from legacy on {label}"
        for leg in (legacy, cold, warm):
            del leg["result_key"]
        workloads.append({
            "workload": label,
            "n": n,
            "scheme": STUDY_SCHEME,
            "threads": THREADS,
            "workers": WORKERS,
            "backend": "c",
            "accesses": legacy["accesses"],
            "legs": {leg["mode"]: leg for leg in (legacy, cold, warm)},
            "speedup_warm_vs_legacy": round(
                legacy["seconds"] / warm["seconds"], 2
            ),
            "worker_rss_warm_vs_legacy": round(
                warm["worker_peak_rss_kb"] / legacy["worker_peak_rss_kb"], 3
            ),
            "bit_identical": True,
        })
    return workloads


def run_codec(tmp_root: Path, n: int = 2048) -> list[dict]:
    from repro.trace import (
        MatmulTraceSpec,
        TraceIRReader,
        naive_matmul_trace,
        write_trace_ir,
    )
    from repro.trace.ir import RAW_BYTES_PER_ACCESS

    rows = [n // 2]
    out = []
    for scheme in CODEC_SCHEMES:
        spec = MatmulTraceSpec.uniform(n, scheme)

        t0 = time.perf_counter()
        accesses = sum(len(c) for c in naive_matmul_trace(spec, rows=rows))
        gen_s = time.perf_counter() - t0

        path = tmp_root / f"codec-{scheme}.ir"
        t0 = time.perf_counter()
        write_trace_ir(path, naive_matmul_trace(spec, rows=rows), 64)
        encode_s = time.perf_counter() - t0 - gen_s  # net of regeneration

        t0 = time.perf_counter()
        with TraceIRReader(path) as reader:
            decoded = sum(len(seg[0]) for seg in reader.segments())
        decode_s = time.perf_counter() - t0
        assert decoded == accesses

        out.append({
            "scheme": scheme,
            "accesses": accesses,
            "generate_maccesses_per_sec": round(accesses / gen_s / 1e6, 2),
            "encode_maccesses_per_sec": round(
                accesses / max(encode_s, 1e-9) / 1e6, 2
            ),
            "decode_maccesses_per_sec": round(accesses / decode_s / 1e6, 2),
            "decode_speedup_vs_regenerate": round(gen_s / decode_s, 2),
            "encoded_bytes": path.stat().st_size,
            "compression_vs_raw_columns": round(
                accesses * RAW_BYTES_PER_ACCESS / path.stat().st_size, 2
            ),
        })
    return out


def run_residue() -> dict:
    """Frame vs npz for a representative worker L2-miss residue."""
    from repro.sim import pack_miss_stream, unpack_miss_stream

    rng = np.random.default_rng(7)
    n = 262_144
    lines = np.cumsum(
        rng.integers(-32, 33, n).astype(np.int64), dtype=np.int64
    ).astype(np.uint64) + np.uint64(1 << 20)
    is_write = rng.random(n) < 0.3
    tags = rng.integers(0, 3, n).astype(np.uint8)

    t0 = time.perf_counter()
    frame = pack_miss_stream(lines, is_write, tags)
    unpack_miss_stream(frame)
    frame_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    buf = io.BytesIO()
    np.savez(buf, lines=lines, is_write=is_write, tags=tags)
    buf.seek(0)
    with np.load(buf) as npz:
        npz["lines"], npz["is_write"], npz["tags"]
    npz_s = time.perf_counter() - t0

    return {
        "misses": n,
        "frame_bytes": len(frame),
        "npz_bytes": buf.getbuffer().nbytes,
        "ipc_bytes_frame_vs_npz": round(len(frame) / buf.getbuffer().nbytes, 3),
        "frame_roundtrip_ms": round(frame_s * 1e3, 2),
        "npz_roundtrip_ms": round(npz_s * 1e3, 2),
        "note": (
            "bytes shipped worker->parent per residue message; the frame "
            "is also SHA-256 verified on unpack, npz was not"
        ),
    }


def run_all(tmp_root: Path, quick: bool = False) -> dict:
    points = [("8s-quick-size8", 256)] if quick else STUDY_POINTS
    return {
        "benchmark": "bench_trace_ir",
        "units": "seconds end-to-end per study leg; Maccesses/second for codec",
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "note": (
                "single-CPU host: all processes share one core, so the "
                "warm-cache win is pure work removed (trace regeneration "
                "replaced by mmap-streamed decode), not parallelism; the "
                "cold leg honestly pays generation + encode + publish once"
            ),
        },
        "study": run_study(tmp_root, points) if _clib.load() else [],
        "codec": run_codec(tmp_root, n=512 if quick else 2048),
        "ipc_residue": run_residue(),
    }


def render(results: dict) -> str:
    lines = []
    for w in results["study"]:
        legs = w["legs"]
        lines.append(
            f"{w['workload']:>18s} (n={w['n']}, {w['scheme']}): "
            f"legacy {legs['legacy']['seconds']:7.2f}s  "
            f"cold {legs['cold']['seconds']:7.2f}s  "
            f"warm {legs['warm']['seconds']:7.2f}s  "
            f"speedup {w['speedup_warm_vs_legacy']:.2f}x  "
            f"worker RSS {w['worker_rss_warm_vs_legacy']:.3f}x"
        )
    for c in results["codec"]:
        lines.append(
            f"{c['scheme']:>18s} codec: generate "
            f"{c['generate_maccesses_per_sec']:6.1f} Ma/s  decode "
            f"{c['decode_maccesses_per_sec']:6.1f} Ma/s  "
            f"({c['decode_speedup_vs_regenerate']:.2f}x)  "
            f"compression {c['compression_vs_raw_columns']:.2f}x"
        )
    r = results["ipc_residue"]
    lines.append(
        f"{'ipc residue':>18s}: frame {r['frame_bytes']:,} B vs npz "
        f"{r['npz_bytes']:,} B ({r['ipc_bytes_frame_vs_npz']:.3f}x)"
    )
    return "\n".join(lines)


@pytest.mark.slow
@pytest.mark.skipif(
    _clib.load() is None, reason="study legs need the C library"
)
def test_trace_ir_pipeline_wins(tmp_path, report):
    results = run_all(tmp_path, quick=True)
    report("TRACE IR PIPELINE", render(results))
    for w in results["study"]:
        assert w["bit_identical"]
        assert w["legs"]["warm"]["seconds"] > 0
    for c in results["codec"]:
        assert c["compression_vs_raw_columns"] > 1.0


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--leg", default=None)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--n", type=int, default=None)
    args = parser.parse_args()
    if args.leg:
        print(json.dumps(run_leg(args.leg, args.cache_dir, args.n)))
        return

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        results = run_all(Path(tmp))
    OUT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")
    print(render(results))


if __name__ == "__main__":
    main()
