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
from repro.sim.fastcache import FULLY_ASSOC_KERNEL_MAX_WAYS


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
    """A random stream-replay problem: (set_mask, lines, is_write, tags)."""
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, 6 * n_sets * assoc, n).astype(np.uint64)
    is_write = (rng.random(n) < 0.4).astype(np.uint8)
    tags = rng.integers(0, 256, n).astype(np.uint8)
    return n_sets, assoc, np.uint64(n_sets - 1), lines, is_write, tags


def _one_set_setup(seed):
    """One set (``set_mask`` 0) at the kernel threshold associativity.

    A pass over 64 lines more than the set holds fills it and evicts,
    then random re-accesses hit at every depth or miss on the evicted.
    The un-jitted kernel pays O(assoc) per miss, so misses are few.
    """
    assoc = FULLY_ASSOC_KERNEL_MAX_WAYS
    rng = np.random.default_rng(seed)
    universe = assoc + 64
    lines = np.concatenate([
        rng.permutation(universe), rng.integers(0, universe, 256)
    ]).astype(np.uint64)
    is_write = (rng.random(len(lines)) < 0.4).astype(np.uint8)
    tags = rng.integers(0, 256, len(lines)).astype(np.uint8)
    return 1, assoc, np.uint64(0), lines, is_write, tags


class TestKernelParity:
    """Every compiled kernel against the pure-Python same-source kernel."""

    def _run(self, kernel, problem):
        n_sets, assoc, set_mask, lines, is_write, tags = problem
        n = len(lines)
        slots = np.full((n_sets, assoc), np.uint64(0xFFFFFFFFFFFFFFFF))
        dirty = np.zeros((n_sets, assoc), dtype=np.uint8)
        miss_lines = np.zeros(n, dtype=np.uint64)
        miss_flags = np.zeros(n, dtype=np.uint8)
        miss_tags = np.zeros(n, dtype=np.uint8)
        counters = [np.zeros(256, dtype=np.int64) for _ in range(3)]
        counts = kernel(
            slots, dirty, set_mask, lines, is_write, tags,
            miss_lines, miss_flags, miss_tags, *counters,
        )
        n_miss = int(counts[0])
        # The slack past n_miss stays untouched.
        assert not miss_lines[n_miss:].any() and not miss_tags[n_miss:].any()
        return (
            slots, dirty, miss_lines[:n_miss], miss_flags[:n_miss],
            miss_tags[:n_miss], *counters, [int(c) for c in counts],
        )

    def _assert_parity(self, kernel, problem):
        got_py = self._run(kernels.python_stream_replay, problem)
        got = self._run(kernel, problem)
        n_miss, evictions, _, writes, write_misses = got_py[-1]
        assert evictions > 0 and 0 < write_misses < n_miss and writes > 0
        for a, b in zip(got_py, got):
            np.testing.assert_array_equal(a, b)

    def test_python_kernel_counts_the_chunk(self):
        # The kernel's own accounting against the chunk it was given.
        problem = _replay_setup(4)
        _, _, _, lines, is_write, tags = problem
        (_, _, miss_lines, miss_flags, miss_tags, tag_acc, tag_rm, tag_wm,
         counts) = self._run(kernels.python_stream_replay, problem)
        n_miss, _, _, writes, write_misses = counts
        assert writes == int(is_write.sum())
        assert write_misses == int(miss_flags.sum())
        np.testing.assert_array_equal(tag_acc, np.bincount(tags, minlength=256))
        flags = miss_flags.astype(bool)
        np.testing.assert_array_equal(
            tag_rm, np.bincount(miss_tags[~flags], minlength=256)
        )
        np.testing.assert_array_equal(
            tag_wm, np.bincount(miss_tags[flags], minlength=256)
        )
        assert tag_rm.sum() + tag_wm.sum() == n_miss == len(miss_lines)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_python_kernel_matches_reference(self, seed):
        # The un-jitted kernel, through FastCache's own dispatch, against
        # the reference loop, including the carried MRU stacks and the
        # per-tag counters.
        spec = CacheSpec("t", 16 * 4 * 64, 64, 4)
        rng = np.random.default_rng(seed)
        lines = rng.integers(0, 400, 5000).astype(np.uint64)
        w = rng.random(5000) < 0.3
        tags = rng.integers(0, 256, 5000).astype(np.uint8)
        ref = Cache(spec)
        py = FastCache(spec, backend="python")
        r = ref.access_lines(lines, w, tags)
        f = py.access_lines(lines, w, tags)
        for a, b in zip(r, f):
            np.testing.assert_array_equal(a, b)
        assert ref.stats.misses == py.stats.misses
        assert ref.stats.evictions == py.stats.evictions
        assert ref.stats.writebacks == py.stats.writebacks
        for field in ("tag_accesses", "tag_read_misses", "tag_write_misses"):
            np.testing.assert_array_equal(
                getattr(ref.stats, field), getattr(py.stats, field)
            )
        got, expect = py.state_snapshot(), ref.state_snapshot()
        for row, want in zip(got["stack"], expect["sets"]):
            assert [int(v) for v in row[: len(want)]] == want
        assert {int(v) for v in got["stack"][got["dirty"]]} == expect["dirty"]

    @pytest.mark.skipif(not backend_available("c"), reason="no C toolchain")
    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_c_kernel_matches_python_kernel(self, seed):
        self._assert_parity(cbackend.c_stream_replay, _replay_setup(seed))

    @pytest.mark.skipif(not backend_available("numba"), reason="no numba")
    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_numba_kernel_matches_python_kernel(self, seed):
        self._assert_parity(kernels.numba_stream_replay, _replay_setup(seed))

    @pytest.mark.skipif(not backend_available("c"), reason="no C toolchain")
    def test_c_kernel_one_set_at_threshold(self):
        self._assert_parity(cbackend.c_stream_replay, _one_set_setup(8))

    @pytest.mark.skipif(not backend_available("numba"), reason="no numba")
    def test_numba_kernel_one_set_at_threshold(self):
        self._assert_parity(kernels.numba_stream_replay, _one_set_setup(8))

    @pytest.mark.skipif(not backend_available("c"), reason="no C toolchain")
    @pytest.mark.parametrize("short", ["miss_lines", "tag_accesses", "tags"])
    def test_c_adapter_rejects_short_arrays(self, short):
        # The C loop writes up to n misses and indexes counters by tag;
        # arrays too short for that are refused before any pointer moves.
        _, _, set_mask, lines, is_write, tags = _replay_setup(1, n=64)
        args = {
            "slots": np.full((16, 4), np.uint64(0xFFFFFFFFFFFFFFFF)),
            "dirty": np.zeros((16, 4), dtype=np.uint8),
            "set_mask": set_mask, "lines": lines, "is_write": is_write,
            "tags": tags,
            "miss_lines": np.zeros(64, dtype=np.uint64),
            "miss_flags": np.zeros(64, dtype=np.uint8),
            "miss_tags": np.zeros(64, dtype=np.uint8),
            "tag_accesses": np.zeros(256, dtype=np.int64),
            "tag_read_misses": np.zeros(256, dtype=np.int64),
            "tag_write_misses": np.zeros(256, dtype=np.int64),
        }
        args[short] = args[short][:-1]
        with pytest.raises(ValueError, match="contract"):
            cbackend.c_stream_replay(**args)
        assert not args["tag_accesses"].any()


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
