"""Differential validation: FastCache must be bit-identical to Cache.

Every test runs the same stream through the reference per-access loop and
:class:`FastCache` and asserts full equality — all ``CacheStats``
counters including per-tag attribution, the returned miss stream, and the
carried state (probed by continuing with further chunks).  Geometries
cover direct-mapped through fully-associative, on both sides of the
associativity up to which one-set levels replay through the C kernel
rather than the Mattson pass.

Each comparison runs on both replay paths (``replay_path``,
``tests/conftest.py``): ``"c"`` with the C library, skipped where it
does not load, and ``"python"`` without it.  There a one-set level takes
the Mattson pass at any width, and a set-associative one, which that
path leaves to the reference loop, runs FastCache's kernel path on the
kernel's Python oracle (:func:`fast_level`).
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _clib
from repro.errors import SimulationError
from repro.sim import Cache, CacheSpec, FastCache, fastcache, make_cache
from repro.sim.fastcache import (
    FULLY_ASSOC_KERNEL_MAX_WAYS,
    PYTHON_REFERENCE_MAX_WAYS,
)
from repro.trace.ir import lower_chunks
from repro.trace.matmul_trace import MatmulTraceSpec, naive_matmul_trace

from tests.conftest import HAS_CLIB, REPLAY_PATHS, clib_unavailable
from tests.sim.kernel_oracle import oracle_kernel_cache

STAT_FIELDS = (
    "accesses",
    "write_accesses",
    "hits",
    "misses",
    "read_misses",
    "write_misses",
    "evictions",
    "writebacks",
    "prefetches",
)


def fast_level(spec):
    """The FastCache this path replays ``spec`` on: the C kernel or the
    Mattson pass with the library, the Mattson pass at one set without
    it, and otherwise the kernel path on the kernel's Python oracle."""
    if spec.n_sets > 1 and _clib.load() is None:
        return oracle_kernel_cache(spec)
    return FastCache(spec)


def assert_equivalent(spec, chunks):
    """Stream ``chunks`` through both engines; assert exact equality."""
    ref = Cache(spec)
    fast = fast_level(spec)
    for lines, is_write, tags in chunks:
        r = ref.access_lines(lines, is_write, tags)
        f = fast.access_lines(lines, is_write, tags)
        for name, a, b in zip(("lines", "is_write", "tags"), r, f):
            np.testing.assert_array_equal(a, b, err_msg=f"miss stream {name}")
    for field in STAT_FIELDS:
        assert getattr(ref.stats, field) == getattr(fast.stats, field), field
    np.testing.assert_array_equal(ref.stats.tag_accesses, fast.stats.tag_accesses)
    np.testing.assert_array_equal(
        ref.stats.tag_read_misses, fast.stats.tag_read_misses
    )
    np.testing.assert_array_equal(
        ref.stats.tag_write_misses, fast.stats.tag_write_misses
    )
    assert ref.resident_lines == fast.resident_lines


def random_chunks(rng, n_chunks, universe, max_len=500):
    out = []
    for _ in range(n_chunks):
        n = int(rng.integers(0, max_len))
        lines = rng.integers(0, universe, n).astype(np.uint64)
        is_write = rng.random(n) < 0.3
        tags = rng.integers(0, 256, n).astype(np.uint8)
        out.append((lines, is_write, tags))
    return out


GEOMETRIES = [
    # (line_bytes, assoc, n_sets): direct-mapped, skewed, fully-assoc.
    (64, 1, 16),
    (64, 2, 1),
    (64, 4, 4),
    (32, 8, 8),
    (64, 8, 64),
    (64, 16, 1),
    # One set at the kernel threshold (kernel with the C library) and
    # above it (Mattson on both paths).
    (64, FULLY_ASSOC_KERNEL_MAX_WAYS, 1),
    (64, 2 * FULLY_ASSOC_KERNEL_MAX_WAYS, 1),
]


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("line_bytes,assoc,n_sets", GEOMETRIES)
    @pytest.mark.parametrize("replay_path", REPLAY_PATHS, indirect=True)
    def test_geometry_sweep(self, line_bytes, assoc, n_sets, replay_path):
        rng = np.random.default_rng(n_sets * 1000 + assoc)
        spec = CacheSpec("t", n_sets * assoc * line_bytes, line_bytes, assoc)
        # Universe ~8x the cache to exercise evictions and re-installs.
        chunks = random_chunks(rng, 3, 8 * n_sets * assoc + 1)
        assert_equivalent(spec, chunks)

    @pytest.mark.parametrize("replay_path", REPLAY_PATHS, indirect=True)
    def test_skewed_set_traffic(self, replay_path):
        # A few hot sets carry much longer subsequences than the rest.
        rng = np.random.default_rng(7)
        spec = CacheSpec("t", 64 * 4 * 64, 64, 4)  # 64 sets
        skew = rng.integers(0, 8, 4000) * 64 + rng.integers(0, 64, 4000)
        flat = rng.integers(0, 64 * 40, 2000)
        lines = np.concatenate([skew, flat])[rng.permutation(6000)].astype(np.uint64)
        is_write = rng.random(6000) < 0.4
        tags = rng.integers(0, 256, 6000).astype(np.uint8)
        assert_equivalent(spec, [(lines, is_write, tags)])

    def test_streaming_state_carryover(self):
        # Many small chunks: boundaries land mid-reuse so carried MRU
        # order and dirty bits decide later hits and writebacks.
        rng = np.random.default_rng(11)
        spec = CacheSpec("t", 16 * 4 * 64, 64, 4)
        chunks = random_chunks(rng, 12, 200, max_len=120)
        assert_equivalent(spec, chunks)
        with clib_unavailable():
            assert_equivalent(spec, chunks)

    def test_fully_associative_streaming(self):
        rng = np.random.default_rng(13)
        spec = CacheSpec("t", 32 * 64, 64, 32)  # one set, 32 ways
        chunks = random_chunks(rng, 8, 200, max_len=300)
        assert_equivalent(spec, chunks)

    def test_all_tags_attributed(self):
        rng = np.random.default_rng(17)
        spec = CacheSpec("t", 8 * 2 * 64, 64, 2)
        n = 4096
        lines = rng.integers(0, 200, n).astype(np.uint64)
        tags = np.arange(n, dtype=np.uint64).astype(np.uint8)  # all 256 tags
        chunks = [(lines, rng.random(n) < 0.5, tags)]
        assert_equivalent(spec, chunks)
        with clib_unavailable():
            assert_equivalent(spec, chunks)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        assoc_log=st.integers(0, 3),
        sets_log=st.integers(0, 4),
        seed=st.integers(0, 2**31),
    )
    def test_hypothesis_equivalence(self, data, assoc_log, sets_log, seed):
        assoc, n_sets = 1 << assoc_log, 1 << sets_log
        spec = CacheSpec("t", n_sets * assoc * 64, 64, assoc)
        rng = np.random.default_rng(seed)
        universe = data.draw(st.integers(1, 6 * n_sets * assoc + 1))
        chunks = random_chunks(rng, data.draw(st.integers(1, 3)), universe, 300)
        without_clib = data.draw(st.booleans())
        with clib_unavailable() if without_clib else nullcontext():
            assert_equivalent(spec, chunks)


class TestKernelThreshold:
    """One-set levels on both sides of the kernel threshold, and the
    state they hand across it."""

    @pytest.mark.parametrize(
        "ways", [FULLY_ASSOC_KERNEL_MAX_WAYS, 2 * FULLY_ASSOC_KERNEL_MAX_WAYS]
    )
    @pytest.mark.parametrize("replay_path", REPLAY_PATHS, indirect=True)
    def test_eviction_pressure(self, ways, replay_path):
        # A universe 1.5x the level: deep hits, evictions and dirty
        # writebacks, with state carried across chunks (the last one a
        # single access).
        rng = np.random.default_rng(ways)
        spec = CacheSpec("t", ways * 64, 64, ways)
        chunks = random_chunks(rng, 4, ways * 3 // 2, max_len=ways)
        chunks.append(random_chunks(rng, 1, ways * 3 // 2, max_len=1)[0])
        assert_equivalent(spec, chunks)

    @pytest.mark.skipif(not HAS_CLIB, reason="no C toolchain")
    @pytest.mark.parametrize("first", ["mattson", "kernel"])
    def test_state_crosses_paths(self, first):
        # Half a stream on one path, the snapshot loaded into a level of
        # the same spec on the other path, the rest there.
        rng = np.random.default_rng(23)
        spec = CacheSpec("t", 64 * 64, 64, 64)
        chunks = random_chunks(rng, 6, 100, max_len=200)
        ref = Cache(spec)
        expect = [ref.access_lines(*c) for c in chunks]
        with clib_unavailable():
            mattson = FastCache(spec)
        kernel = FastCache(spec)
        a, b = (mattson, kernel) if first == "mattson" else (kernel, mattson)
        got = [a.access_lines(*c) for c in chunks[:3]]
        b.load_state(a.state_snapshot())
        got += [b.access_lines(*c) for c in chunks[3:]]
        for want, have in zip(expect, got):
            for x, y in zip(want, have):
                np.testing.assert_array_equal(x, y)
        for field in STAT_FIELDS:
            assert getattr(ref.stats, field) == getattr(b.stats, field), field
        np.testing.assert_array_equal(
            ref.stats.tag_read_misses, b.stats.tag_read_misses
        )
        snap, want = b.state_snapshot(), ref.state_snapshot()
        assert [int(v) for v in snap["stack"][0][: len(want["sets"][0])]] == (
            want["sets"][0]
        )
        assert {int(v) for v in snap["stack"][snap["dirty"]]} == want["dirty"]


def assert_same_state(a: dict, b: dict) -> None:
    """Two ``state_snapshot()`` dicts of one cache are equal, stats too."""
    assert a.keys() == b.keys()
    for key in a:
        if key == "stats":
            for field in STAT_FIELDS:
                assert getattr(a[key], field) == getattr(b[key], field), field
            for field in ("tag_accesses", "tag_read_misses", "tag_write_misses"):
                np.testing.assert_array_equal(
                    getattr(a[key], field), getattr(b[key], field)
                )
        elif isinstance(a[key], np.ndarray):
            np.testing.assert_array_equal(a[key], b[key])
        else:
            assert a[key] == b[key], key


class TestInputDtypes:
    """Line, write-flag and tag dtypes other than uint64/bool/uint8."""

    @pytest.mark.parametrize(
        "replay_path", ["reference"] + REPLAY_PATHS, indirect=True)
    @pytest.mark.parametrize("ways,n_sets", [(4, 4), (16, 1)])
    @pytest.mark.parametrize("bad", [300, -1])
    def test_out_of_range_tag_changes_nothing(self, replay_path, ways, n_sets,
                                              bad):
        spec = CacheSpec("t", n_sets * ways * 64, 64, ways)
        cache = Cache(spec) if replay_path == "reference" else fast_level(spec)
        rng = np.random.default_rng(ways)
        cache.access_lines(
            rng.integers(0, 64, 200).astype(np.uint64),
            rng.random(200) < 0.3,
            rng.integers(0, 256, 200).astype(np.uint8),
        )
        before = cache.state_snapshot()
        for tags in ([bad, 1, 2], np.array([1, bad, 2], dtype=np.int64)):
            with pytest.raises(SimulationError, match="tags"):
                cache.access_lines(
                    np.array([100, 101, 102], dtype=np.uint64),
                    np.array([True, False, True]),
                    tags,
                )
            assert_same_state(cache.state_snapshot(), before)

    @pytest.mark.parametrize(
        "replay_path", ["reference"] + REPLAY_PATHS, indirect=True)
    @pytest.mark.parametrize("ways,n_sets", [(4, 4), (16, 1)])
    def test_int64_tags_give_uint8_miss_tags(self, replay_path, ways, n_sets):
        spec = CacheSpec("t", n_sets * ways * 64, 64, ways)

        def make():
            if replay_path == "reference":
                return Cache(spec)
            return fast_level(spec)

        rng = np.random.default_rng(n_sets)
        lines = rng.integers(0, 6 * n_sets * ways, 2000).astype(np.uint64)
        flags = rng.random(2000) < 0.3
        tags = rng.integers(0, 256, 2000).astype(np.uint8)
        with_u8, with_i64 = make(), make()
        want = with_u8.access_lines(lines, flags, tags)
        got = with_i64.access_lines(lines, flags, tags.astype(np.int64))
        assert got[2].dtype == np.uint8
        for x, y in zip(want, got):
            np.testing.assert_array_equal(x, y)
            assert x.dtype == y.dtype
        assert_same_state(with_i64.state_snapshot(), with_u8.state_snapshot())

    @pytest.mark.parametrize("replay_path", REPLAY_PATHS, indirect=True)
    def test_large_int64_lines(self, replay_path):
        # Distinct lines above 2**53 must stay distinct (no float64
        # round trip), on both sides of the threshold.
        rng = np.random.default_rng(29)
        lines = (2**60 + rng.integers(0, 40, 3000)).astype(np.int64)
        is_write = rng.random(3000) < 0.3
        for ways in (16, 2 * FULLY_ASSOC_KERNEL_MAX_WAYS):
            spec = CacheSpec("t", ways * 64, 64, ways)
            ref, fc = Cache(spec), fast_level(spec)
            want = ref.access_lines(lines, is_write)
            got = fc.access_lines(lines, is_write)
            np.testing.assert_array_equal(want[0].astype(np.uint64), got[0])
            for field in STAT_FIELDS:
                assert getattr(ref.stats, field) == getattr(fc.stats, field), field

    @pytest.mark.parametrize("replay_path", REPLAY_PATHS, indirect=True)
    @pytest.mark.parametrize("ways,n_sets", [(16, 1), (4, 4)])
    def test_minus_one_is_the_sentinel(self, replay_path, ways, n_sets):
        # The reference loop rejects it too, so the paths never disagree
        # on such a stream.
        spec = CacheSpec("t", n_sets * ways * 64, 64, ways)
        lines = np.array([-1, 5, -1, 5, -1], dtype=np.int64)
        for cache in (Cache(spec), fast_level(spec)):
            with pytest.raises(SimulationError, match="sentinel"):
                cache.access_lines(lines, np.zeros(5, bool))
            assert cache.stats.accesses == 0

    @pytest.mark.parametrize("replay_path", REPLAY_PATHS, indirect=True)
    @pytest.mark.parametrize("ways,n_sets", [(4, 4), (16, 1)])
    @pytest.mark.parametrize("n", [5, 2000])
    def test_integer_write_flags(self, replay_path, ways, n_sets, n):
        rng = np.random.default_rng(n)
        spec = CacheSpec("t", n_sets * ways * 64, 64, ways)
        lines = rng.integers(0, 6 * n_sets * ways, n).astype(np.uint64)
        flags = rng.random(n) < 0.4
        tags = rng.integers(0, 3, n).astype(np.uint8)
        for make in (lambda: Cache(spec), lambda: fast_level(spec)):
            with_bool, with_int = make(), make()
            a = with_bool.access_lines(lines, flags, tags)
            b = with_int.access_lines(lines, flags.astype(np.uint8), tags)
            for x, y in zip(a, b):
                np.testing.assert_array_equal(x, y)
            for field in STAT_FIELDS:
                assert getattr(with_bool.stats, field) == getattr(
                    with_int.stats, field
                ), field
            for field in ("tag_accesses", "tag_read_misses", "tag_write_misses"):
                np.testing.assert_array_equal(
                    getattr(with_bool.stats, field), getattr(with_int.stats, field)
                )


class TestMatmulTraceEquivalence:
    """Real workload streams through a hierarchy level, per replay path."""

    @pytest.mark.parametrize("scheme", ["rm", "mo", "ho"])
    @pytest.mark.parametrize("replay_path", REPLAY_PATHS, indirect=True)
    def test_matmul_ll(self, scheme, replay_path):
        spec = MatmulTraceSpec.uniform(32, scheme)
        cache = CacheSpec("LL", 16 * 1024, 64, 16)
        chunks = [
            (c.addr >> np.uint64(6), c.is_write, c.tag)
            for c in naive_matmul_trace(spec, rows=[15, 16], cols_per_chunk=16)
        ]
        assert_equivalent(cache, chunks)

    @pytest.mark.slow
    def test_matmul_full_problem_both_paths(self):
        spec = MatmulTraceSpec.uniform(64, "mo")
        cache = CacheSpec("LL", 64 * 1024, 64, 8)
        chunks = [
            (c.addr >> np.uint64(6), c.is_write, c.tag)
            for c in naive_matmul_trace(spec, cols_per_chunk=64)
        ]
        assert_equivalent(cache, chunks)
        with clib_unavailable():
            assert_equivalent(cache, chunks)


class TestInterface:
    def test_rejects_prefetch(self):
        with pytest.raises(SimulationError):
            FastCache(CacheSpec("t", 1024, 64, 4), prefetch="next-line")

    def test_rejects_length_mismatch(self):
        fc = fast_level(CacheSpec("t", 1024, 64, 4))
        with pytest.raises(SimulationError):
            fc.access_lines(np.zeros(3, np.uint64), np.zeros(2, bool))
        with pytest.raises(SimulationError):
            fc.access_lines(
                np.zeros(3, np.uint64), np.zeros(3, bool), np.zeros(1, np.uint8)
            )

    def test_empty_chunk_is_free(self):
        fc = fast_level(CacheSpec("t", 1024, 64, 4))
        lines, w, t = fc.access_lines(np.zeros(0, np.uint64), np.zeros(0, bool))
        assert len(lines) == len(w) == len(t) == 0
        assert fc.stats.accesses == 0

    def test_reset(self):
        fc = fast_level(CacheSpec("t", 1024, 64, 4))
        fc.access_lines(np.arange(64, dtype=np.uint64), np.ones(64, bool))
        assert fc.resident_lines > 0
        fc.reset()
        assert fc.resident_lines == 0
        assert fc.stats.accesses == 0

    def test_make_cache_selector(self, monkeypatch):
        # Every row of the routing table, with the C library and without
        # it, by the path that actually runs: kernel calls are counted at
        # the kernel (a level takes it when it is built), Mattson calls
        # at the pass.
        calls = []
        kernel = _clib.stream_replay
        run_mattson = FastCache._run_mattson

        def counting_kernel(*args):
            calls.append("kernel")
            return kernel(*args)

        def counting_mattson(self, *args):
            calls.append("mattson")
            return run_mattson(self, *args)

        monkeypatch.setattr(_clib, "stream_replay", counting_kernel)
        monkeypatch.setattr(FastCache, "_run_mattson", counting_mattson)

        def path(spec, prefetch):
            level = make_cache(spec, prefetch)
            if isinstance(level, Cache):
                return "reference"
            del calls[:]
            level.access_lines(np.arange(64, dtype=np.uint64), np.zeros(64, bool))
            (ran,) = calls
            return ran

        def one_set(ways):
            return CacheSpec("t", ways * 64, 64, ways)

        top, narrow = FULLY_ASSOC_KERNEL_MAX_WAYS, PYTHON_REFERENCE_MAX_WAYS
        set_assoc = CacheSpec("t", 1024, 64, 4)
        # (spec, prefetch, path with the library, path without it)
        rows = [
            (set_assoc, "next-line", "reference", "reference"),
            (one_set(2 * top), "next-line", "reference", "reference"),
            (set_assoc, "none", "kernel", "reference"),
            (one_set(8), "none", "kernel", "reference"),
            (one_set(narrow), "none", "kernel", "reference"),
            (one_set(2 * narrow), "none", "kernel", "mattson"),
            (one_set(top), "none", "kernel", "mattson"),
            (one_set(2 * top), "none", "mattson", "mattson"),
        ]
        if HAS_CLIB:
            assert [path(spec, pf) for spec, pf, _, _ in rows] == [
                want for _, _, want, _ in rows]
        with clib_unavailable():
            assert [path(spec, pf) for spec, pf, _, _ in rows] == [
                want for _, _, _, want in rows]

    def test_python_study_d1_is_the_reference_loop(self, no_clib):
        # The cachegrind study's D1 is one set of 8 ways; without the C
        # library the reference loop replays it (it beats the Mattson
        # pass there), and the LL, set-associative, too.
        from repro.experiments.cachegrind_study import _study_machine
        from repro.perf.cachegrind import CachegrindSim

        sim = CachegrindSim(_study_machine(128, 19.7))
        assert sim.d1.spec.n_sets == 1 and sim.d1.spec.assoc == 8
        assert type(sim.d1) is Cache and type(sim.ll) is Cache

    @pytest.mark.skipif(not HAS_CLIB, reason="no C toolchain")
    def test_default_runs_the_compiled_kernel(self, monkeypatch, tmp_path):
        # With the library, a set-associative level runs the C kernel,
        # not the reference loop, and so do both levels of the cachegrind
        # study, its fully-associative D1 included; the metric label
        # names the path that replayed.
        from repro.experiments import run_cachegrind_study
        from repro.obs import OBS, ObsSession

        calls = []
        kernel = _clib.stream_replay

        def counting(*args):
            calls.append((args[0].shape, len(args[3])))
            return kernel(*args)

        monkeypatch.setattr(_clib, "stream_replay", counting)
        fc = make_cache(CacheSpec("t", 1024, 64, 4))
        assert isinstance(fc, FastCache)
        fc.access_lines(np.arange(64, dtype=np.uint64), np.zeros(64, bool))
        assert calls == [((4, 4), 64)]
        with ObsSession(metrics=tmp_path / "m.json"):
            # n=64 gives the study a 2-set LL; its D1 is one set of 8 ways.
            run_cachegrind_study(n=64, n_rows=1, schemes=("ho",))
            metrics = OBS.metrics
        shapes = {shape for shape, _ in calls[1:]}
        assert shapes == {(1, 8), (2, 20)}
        for level in ("D1", "LL"):
            assert metrics.counter_value("cache.accesses", level=level,
                                         backend="c") > 0
            assert metrics.counter_value("cache.accesses", level=level,
                                         backend="python") == 0

    @pytest.mark.parametrize("replay_path", REPLAY_PATHS, indirect=True)
    def test_kernel_path_does_its_own_accounting(self, replay_path,
                                                 monkeypatch):
        # The kernel writes the miss stream and the per-tag counts in its
        # own pass, so the NumPy accounting passes never run after it.
        def refuse(*args, **kwargs):
            raise AssertionError("NumPy accounting ran on the kernel path")

        monkeypatch.setattr(fastcache, "finalize_chunk_stats", refuse)
        monkeypatch.setattr(fastcache.np, "flatnonzero", refuse)
        spec = CacheSpec("t", 16 * 4 * 64, 64, 4)
        rng = np.random.default_rng(3)
        lines = rng.integers(0, 400, 3000).astype(np.uint64)
        flags = rng.random(3000) < 0.3
        tags = rng.integers(0, 256, 3000).astype(np.uint8)
        fc = fast_level(spec)
        got = fc.access_lines(lines, flags, tags)
        monkeypatch.undo()
        ref = Cache(spec)
        want = ref.access_lines(lines, flags, tags)
        for a, b in zip(want, got):
            np.testing.assert_array_equal(a, b)
        assert_same_state({"stats": fc.stats}, {"stats": ref.stats})

    def test_make_cache_prefetch_fallback(self):
        spec = CacheSpec("t", 1024, 64, 4)
        levels = [make_cache(spec, prefetch="next-line")]
        with clib_unavailable():
            levels.append(make_cache(spec, prefetch="next-line"))
        for level in levels:
            assert isinstance(level, Cache)
            assert level.prefetch == "next-line"


class TestHierarchyComposition:
    """Both replay paths compose through the stack with identical results."""

    def test_multicore_sim_engines_agree(self):
        from repro.sim import (
            SANDY_BRIDGE_E5_2670,
            MulticoreTraceSim,
            scaled_machine,
        )

        machine = scaled_machine(SANDY_BRIDGE_E5_2670, 512)
        spec = MatmulTraceSpec.uniform(32, "mo")

        def run():
            sim = MulticoreTraceSim(machine, spec, threads=2, sockets_used=1)
            return sim.run(rows=[14, 15, 16, 17])

        a = run()
        with clib_unavailable():
            b = run()
        for level in ("l1", "l2", "l3"):
            for field in STAT_FIELDS:
                assert getattr(getattr(a, level), field) == getattr(
                    getattr(b, level), field
                ), (level, field)
        assert a.dram_lines == b.dram_lines

    def test_cachegrind_sim_engines_agree(self):
        from repro.perf.cachegrind import CachegrindSim
        from repro.sim import CACHEGRIND_LIKE, scaled_machine

        machine = scaled_machine(CACHEGRIND_LIKE, 512)
        spec = MatmulTraceSpec.uniform(32, "ho")

        def run():
            chunks = naive_matmul_trace(spec, rows=[15, 16], cols_per_chunk=8)
            return CachegrindSim(machine).run(lower_chunks(chunks, 64))

        report = run()
        with clib_unavailable():
            assert run() == report
