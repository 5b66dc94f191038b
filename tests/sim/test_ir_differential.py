"""Differential suite: IR-streamed traces vs legacy in-memory chunk paths.

The acceptance bar for the columnar trace IR is *bit identity*: running
any consumer from a cached, mmap-streamed IR file must be
indistinguishable — every counter of every cache level, per-tag
attribution, DRAM traffic, and post-run cache contents — from the legacy
path that regenerates chunks in memory.  The matrix covers
{python, numba, c} backends x {1, 2, 4} workers,
plus the cachegrind attributor, the MRC study, and the worker residue
frames (pack/unpack_miss_stream) with fault injection.

Spawn-safe: module-level file, no __main__ tricks.
"""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.perf import CachegrindSim
from repro.sim import (
    CACHEGRIND_LIKE,
    CacheSpec,
    MachineSpec,
    BACKENDS,
    MulticoreTraceSim,
    backend_available,
    pack_miss_stream,
    scaled_machine,
    unpack_miss_stream,
)
from repro.trace import (
    MatmulTraceSpec,
    TraceIRReader,
    matmul_trace_ir,
    naive_matmul_trace,
)
from repro.experiments import run_mrc_study

from tests.sim.test_multicore_parallel import (
    assert_same_contents,
    cache_contents,
    machine,
    result_key,
)

#: python always runs; compiled legs skip on hosts without the backend.
BACKEND_PARAMS = [
    pytest.param(
        b,
        marks=pytest.mark.skipif(
            not backend_available(b), reason=f"{b} backend unavailable"
        ),
    )
    for b in BACKENDS
]


class TestMulticoreIdentity:
    """IR-fed parallel workers vs legacy regeneration vs serial oracle."""

    @pytest.mark.parametrize("backend", BACKEND_PARAMS)
    def test_backend_worker_matrix(self, backend, tmp_path):
        n = 16
        spec = MatmulTraceSpec.uniform(n, "ho")
        m = machine()
        serial = MulticoreTraceSim(
            m, spec, threads=2, sockets_used=2, backend=backend,
        )
        rs = serial.run()
        ser_contents = cache_contents(serial)
        for workers in (1, 2, 4):
            legacy = MulticoreTraceSim(
                m, spec, threads=2, sockets_used=2, backend=backend,
                workers=workers,
            )
            rl = legacy.run()
            streamed = MulticoreTraceSim(
                m, spec, threads=2, sockets_used=2, backend=backend,
                workers=workers, trace_cache=str(tmp_path / "cache"),
            )
            ri = streamed.run()
            assert result_key(ri) == result_key(rl), (backend, workers)
            assert result_key(ri) == result_key(rs), (backend, workers)
            assert_same_contents(cache_contents(streamed), ser_contents)

    def test_cyclic_schedule_and_more_threads(self, tmp_path):
        spec = MatmulTraceSpec.uniform(16, "mo")
        m = machine()
        serial = MulticoreTraceSim(
            m, spec, threads=8, sockets_used=1, schedule="cyclic",
        )
        rs = serial.run()
        streamed = MulticoreTraceSim(
            m, spec, threads=8, sockets_used=1, schedule="cyclic",
            workers=4, trace_cache=str(tmp_path),
        )
        assert result_key(streamed.run()) == result_key(rs)
        assert_same_contents(cache_contents(streamed), cache_contents(serial))

    def test_warm_cache_second_run_identical(self, tmp_path):
        """Run twice against the same cache dir: hit path == build path."""
        spec = MatmulTraceSpec.uniform(16, "rm")
        m = machine()
        keys = []
        for _ in range(2):
            sim = MulticoreTraceSim(
                m, spec, threads=2, sockets_used=2, workers=2,
                trace_cache=str(tmp_path),
            )
            keys.append(result_key(sim.run()))
        assert keys[0] == keys[1]


class TestCachegrindIdentity:
    @pytest.mark.parametrize("scheme", ["rm", "mo", "ho"])
    def test_run_ir_matches_run(self, scheme, tmp_path):
        m = scaled_machine(CACHEGRIND_LIKE, 256)
        spec = MatmulTraceSpec.uniform(32, scheme)
        rows = [7, 8, 21]
        legacy = CachegrindSim(m).run(naive_matmul_trace(spec, rows=rows))
        path = matmul_trace_ir(
            spec, rows=rows, line_bytes=m.l1.line_bytes,
            cache_dir=str(tmp_path),
        )
        with TraceIRReader(path) as reader:
            streamed = CachegrindSim(m).run_ir(reader)
        assert streamed == legacy

    def test_line_bytes_mismatch_rejected(self, tmp_path):
        m = scaled_machine(CACHEGRIND_LIKE, 256)
        spec = MatmulTraceSpec.uniform(16, "rm")
        path = matmul_trace_ir(
            spec, rows=[4], line_bytes=m.l1.line_bytes * 2,
            cache_dir=str(tmp_path),
        )
        with TraceIRReader(path) as reader:
            with pytest.raises(TraceError):
                CachegrindSim(m).run_ir(reader)


class TestMrcIdentity:
    def test_trace_cache_matches_legacy(self, tmp_path):
        kwargs = dict(
            n=16, schemes=("rm", "ho"), u_values=(1.0, 4.0), sample_rows=2,
        )
        legacy = run_mrc_study(**kwargs)
        streamed = run_mrc_study(**kwargs, trace_cache=str(tmp_path))
        assert len(streamed) == len(legacy)
        for a, b in zip(streamed, legacy):
            assert a == b


class TestResidueFrames:
    """Worker->parent miss residue uses the same IR frame codec."""

    def test_roundtrip(self):
        lines = np.array([5, 5, 9, 2**40, 0], dtype=np.uint64)
        w = np.array([1, 0, 0, 1, 1], dtype=bool)
        t = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
        L, W, T = unpack_miss_stream(pack_miss_stream(lines, w, t))
        np.testing.assert_array_equal(L, lines)
        np.testing.assert_array_equal(W, w)
        np.testing.assert_array_equal(T, t)

    def test_corruption_detected(self):
        lines = np.arange(64, dtype=np.uint64)
        w = np.zeros(64, dtype=bool)
        t = np.ones(64, dtype=np.uint8)
        blob = bytearray(pack_miss_stream(lines, w, t))
        blob[-3] ^= 0x40  # flip a payload bit
        with pytest.raises(TraceError):
            unpack_miss_stream(bytes(blob))
