"""Mattson stack distances, validated against the exact LRU cache."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import COLD, Cache, CacheSpec, miss_curve, reuse_distances
from repro.trace import (
    TraceChunk,
    lower_chunks,
    sequential_trace,
    working_set_loop_trace,
)


def lowered(chunks, line_bytes=64):
    """The line-number stream of ``chunks`` (what the studies replay)."""
    segments = list(lower_chunks(chunks, line_bytes))
    if not segments:
        return np.empty(0, dtype=np.uint64)
    return np.concatenate([seg[0] for seg in segments])


class TestReuseDistances:
    def test_sequential_all_cold_per_line(self):
        d = reuse_distances(lowered(sequential_trace(64, elem_bytes=64)))
        assert np.all(d == COLD)

    def test_same_line_back_to_back(self):
        chunk = TraceChunk.reads(np.array([0, 8, 16], dtype=np.uint64))
        d = reuse_distances(lowered([chunk]))
        # One line: cold then distance 0 twice.
        np.testing.assert_array_equal(d, [COLD, 0, 0])

    def test_two_line_alternation(self):
        chunk = TraceChunk.reads(np.array([0, 64, 0, 64], dtype=np.uint64))
        d = reuse_distances(lowered([chunk]))
        np.testing.assert_array_equal(d, [COLD, COLD, 1, 1])

    def test_loop_distance_equals_working_set(self):
        # Sweeping W lines repeatedly: every non-cold access has distance
        # W - 1 (all other lines touched in between).
        d = reuse_distances(
            lowered(working_set_loop_trace(16 * 64, passes=3, elem_bytes=64))
        )
        non_cold = d[d != COLD]
        assert np.all(non_cold == 15)

    def test_empty(self):
        assert reuse_distances(lowered([])).size == 0


class TestMissCurve:
    def test_thresholding(self):
        d = np.array([COLD, 0, 1, 5, 9])
        curve = miss_curve(d, [1, 2, 6, 10])
        assert curve == {1: 4, 2: 3, 6: 2, 10: 1}

    def test_monotone_in_capacity(self):
        d = reuse_distances(lowered(working_set_loop_trace(4096, passes=2)))
        curve = miss_curve(d, [8, 16, 32, 64, 128])
        vals = [curve[c] for c in (8, 16, 32, 64, 128)]
        assert vals == sorted(vals, reverse=True)

    def test_rejects_bad_capacity(self):
        with pytest.raises(SimulationError):
            miss_curve(np.array([1]), [0])

    def test_rejects_2d(self):
        with pytest.raises(SimulationError):
            miss_curve(np.zeros((2, 2)), [1])


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    cap=st.sampled_from([2, 4, 8, 16]),
)
def test_matches_fully_associative_cache(seed, cap):
    """Mattson's curve must agree with the simulated fully-assoc LRU."""
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, 64, size=300, dtype=np.uint64) * 64
    lines = lowered([TraceChunk.reads(addrs)])

    d = reuse_distances(lines)
    mattson = miss_curve(d, [cap])[cap]

    cache = Cache(CacheSpec("fa", cap * 64, 64, cap))  # fully associative
    cache.access_lines(lines, np.zeros(len(lines), dtype=bool))
    assert mattson == cache.stats.misses


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    universe=st.integers(min_value=1, max_value=96),
    n=st.integers(min_value=0, max_value=500),
)
def test_vectorized_matches_fenwick(seed, universe, n):
    """The offline NumPy pass must equal the Fenwick-tree oracle exactly."""
    from repro.sim import reuse_distances_fenwick

    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, universe, size=n, dtype=np.uint64) * 64
    lines = lowered([TraceChunk.reads(addrs)])
    vec = reuse_distances(lines)
    fen = reuse_distances_fenwick(lines)
    np.testing.assert_array_equal(vec, fen)


def test_fenwick_multi_chunk_agreement():
    from repro.sim import reuse_distances_fenwick

    rng = np.random.default_rng(3)
    addrs = rng.integers(0, 40, size=600, dtype=np.uint64) * 32
    chunks = [TraceChunk.reads(addrs[i : i + 150]) for i in range(0, 600, 150)]
    lines = lowered(chunks, line_bytes=128)
    vec = reuse_distances(lines)
    fen = reuse_distances_fenwick(lines)
    np.testing.assert_array_equal(vec, fen)
