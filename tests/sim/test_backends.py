"""The kernel-backend registry: resolution, fallback, and kernel parity.

The pure-Python kernel (``python_stream_replay``) is the same source the
numba backend JIT-compiles and the template the C backend transcribes, so
exercising it un-jitted here validates the algorithm on every host — the
compiled variants only have to match it, and the C leg runs wherever a
system compiler exists.
"""

import warnings

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.robust import DegradedRunWarning
from repro.sim import Cache, CacheSpec, FastCache
from repro.sim.backends import (
    BACKENDS,
    available_backends,
    backend_available,
    cbackend,
    get_replay_kernel,
    kernels,
    resolve_backend,
)


class TestRegistry:
    def test_python_always_available(self):
        assert backend_available("python")
        assert available_backends()[0] == "python"
        assert set(available_backends()) <= set(BACKENDS)

    def test_unknown_backend_raises(self):
        with pytest.raises(SimulationError, match="backend"):
            resolve_backend("turbo")
        with pytest.raises(SimulationError):
            FastCache(CacheSpec("t", 1024, 64, 4), backend="turbo")

    def test_auto_resolves_concrete_and_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for req in (None, "auto"):
                got = resolve_backend(req)
                assert got in BACKENDS
                assert backend_available(got)

    def test_resolution_is_idempotent(self):
        # The property the spawn workers rely on: a resolved name resolves
        # to itself.
        for b in available_backends():
            assert resolve_backend(b) == b

    def test_python_kernel_is_the_kernel_source(self):
        assert get_replay_kernel("python") is kernels.python_stream_replay


class TestFallback:
    def test_missing_numba_degrades_with_warning(self, monkeypatch):
        monkeypatch.setattr(kernels, "HAS_NUMBA", False)
        monkeypatch.setattr(kernels, "numba_stream_replay", None)
        monkeypatch.setattr(kernels, "NUMBA_IMPORT_ERROR", "forced by test")
        with pytest.warns(DegradedRunWarning, match="numba"):
            assert resolve_backend("numba") == "python"
        # The constructor path degrades too — to a working engine, not an
        # error — and records the concrete backend it landed on.
        with pytest.warns(DegradedRunWarning):
            fc = FastCache(CacheSpec("t", 1024, 64, 4), backend="numba")
        assert fc.backend == "python"
        fc.access_lines(np.arange(8, dtype=np.uint64), np.zeros(8, bool))
        assert fc.stats.accesses == 8

    def test_missing_compiler_degrades_with_warning(self, monkeypatch):
        monkeypatch.setattr(cbackend, "c_available", lambda: False)
        monkeypatch.setattr(
            cbackend, "c_unavailable_reason", lambda: "forced by test"
        )
        with pytest.warns(DegradedRunWarning, match="toolchain"):
            assert resolve_backend("c") == "python"

    def test_warn_flag_suppresses(self, monkeypatch):
        monkeypatch.setattr(kernels, "HAS_NUMBA", False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend("numba", warn=False) == "python"

    def test_auto_never_warns_when_degraded(self, monkeypatch):
        monkeypatch.setattr(kernels, "HAS_NUMBA", False)
        monkeypatch.setattr(cbackend, "c_available", lambda: False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend("auto") == "python"


def _replay_setup(seed, n_sets=16, assoc=4, n=3000):
    """A random stream-replay problem: (set_mask, lines, is_write)."""
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, 6 * n_sets * assoc, n).astype(np.uint64)
    is_write = (rng.random(n) < 0.4).astype(np.uint8)
    return n_sets, assoc, np.uint64(n_sets - 1), lines, is_write


class TestKernelParity:
    """Every compiled kernel against the pure-Python same-source kernel."""

    def _run(self, kernel, seed):
        n_sets, assoc, set_mask, lines, is_write = _replay_setup(seed)
        slots = np.full((n_sets, assoc), np.uint64(0xFFFFFFFFFFFFFFFF))
        dirty = np.zeros((n_sets, assoc), dtype=np.uint8)
        miss_flags = np.zeros(len(lines), dtype=np.uint8)
        ev, wb = kernel(slots, dirty, set_mask, lines, is_write, miss_flags)
        return slots, dirty, miss_flags, int(ev), int(wb)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_python_kernel_matches_reference(self, seed):
        # The un-jitted kernel, through FastCache's own dispatch, against
        # the reference loop, including the carried MRU stacks.
        spec = CacheSpec("t", 16 * 4 * 64, 64, 4)
        rng = np.random.default_rng(seed)
        lines = rng.integers(0, 400, 5000).astype(np.uint64)
        w = rng.random(5000) < 0.3
        ref = Cache(spec)
        py = FastCache(spec, backend="python")
        r = ref.access_lines(lines, w)
        f = py.access_lines(lines, w)
        for a, b in zip(r, f):
            np.testing.assert_array_equal(a, b)
        assert ref.stats.misses == py.stats.misses
        assert ref.stats.evictions == py.stats.evictions
        assert ref.stats.writebacks == py.stats.writebacks
        got, expect = py.state_snapshot(), ref.state_snapshot()
        for row, want in zip(got["stack"], expect["sets"]):
            assert [int(v) for v in row[: len(want)]] == want
        assert {int(v) for v in got["stack"][got["dirty"]]} == expect["dirty"]

    @pytest.mark.skipif(not backend_available("c"), reason="no C toolchain")
    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_c_kernel_matches_python_kernel(self, seed):
        got_py = self._run(kernels.python_stream_replay, seed)
        got_c = self._run(cbackend.c_stream_replay, seed)
        for a, b in zip(got_py, got_c):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.skipif(not backend_available("numba"), reason="no numba")
    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_numba_kernel_matches_python_kernel(self, seed):
        got_py = self._run(kernels.python_stream_replay, seed)
        got_nb = self._run(kernels.numba_stream_replay, seed)
        for a, b in zip(got_py, got_nb):
            np.testing.assert_array_equal(a, b)


class TestOracleThroughBackends:
    """End-to-end: each available backend vs the reference Cache."""

    @pytest.mark.parametrize("assoc,n_sets", [(1, 8), (4, 16), (16, 1)])
    def test_against_reference(self, assoc, n_sets):
        spec = CacheSpec("t", n_sets * assoc * 64, 64, assoc)
        rng = np.random.default_rng(assoc * 100 + n_sets)
        chunks = []
        for _ in range(3):
            n = int(rng.integers(50, 600))
            chunks.append((
                rng.integers(0, 8 * n_sets * assoc + 1, n).astype(np.uint64),
                rng.random(n) < 0.3,
                rng.integers(0, 256, n).astype(np.uint8),
            ))
        ref = Cache(spec)
        ref_streams = [ref.access_lines(*c) for c in chunks]
        for backend in available_backends():
            fc = FastCache(spec, backend=backend)
            for chunk, expect in zip(chunks, ref_streams):
                got = fc.access_lines(*chunk)
                for a, b in zip(expect, got):
                    np.testing.assert_array_equal(a, b, err_msg=backend)
            assert fc.stats.misses == ref.stats.misses, backend
            assert fc.stats.writebacks == ref.stats.writebacks, backend
