"""Exact LRU cache simulator: closed-form cases and properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Cache, CacheSpec
from repro.trace import (
    TraceChunk,
    lower_chunks,
    sequential_trace,
    working_set_loop_trace,
)


def small_cache(size=1024, line=64, assoc=2):
    return Cache(CacheSpec("test", size, line, assoc))


def segment(chunk, line_bytes=64):
    """``chunk`` lowered to the line segment a cache level takes."""
    (seg,) = lower_chunks([chunk], line_bytes)
    return seg


class TestBasics:
    def test_cold_miss_then_hit(self):
        c = small_cache()
        chunk = TraceChunk.reads(np.array([0, 0, 8, 64]))
        miss_lines, _, _ = c.access_lines(*segment(chunk))
        # line 0 misses once (0 and 8 share it), line 1 misses.
        np.testing.assert_array_equal(miss_lines, [0, 1])
        assert c.stats.hits == 2
        assert c.stats.misses == 2

    def test_sequential_one_miss_per_line(self):
        c = small_cache()
        for chunk in sequential_trace(256, elem_bytes=8):
            c.access_lines(*segment(chunk))
        assert c.stats.accesses == 256
        assert c.stats.misses == 256 * 8 // 64

    def test_working_set_fits_second_pass_hits(self):
        c = small_cache(size=4096, assoc=8)
        for chunk in working_set_loop_trace(2048, passes=2):
            c.access_lines(*segment(chunk))
        # Pass 1: 32 compulsory misses; pass 2: all hits.
        assert c.stats.misses == 2048 // 64

    def test_working_set_exceeds_lru_thrashes(self):
        # Cyclic sweep over 2x the capacity: LRU evicts exactly what will
        # be needed next — every access to a new line misses, every pass.
        c = Cache(CacheSpec("t", 1024, 64, 16))  # fully associative
        for chunk in working_set_loop_trace(2048, passes=3):
            c.access_lines(*segment(chunk))
        assert c.stats.misses == 3 * 2048 // 64

    def test_write_allocate(self):
        c = small_cache()
        c.access_lines(*segment(TraceChunk.writes(np.array([0]))))
        assert c.stats.misses == 1
        assert c.stats.write_misses == 1
        # Subsequent read of the same line hits.
        c.access_lines(*segment(TraceChunk.reads(np.array([8]))))
        assert c.stats.hits == 1

    def test_writeback_on_dirty_eviction(self):
        # Direct-mapped, 2 sets: lines 0 and 2 collide in set 0.
        c = Cache(CacheSpec("t", 128, 64, 1))
        c.access_lines(*segment(TraceChunk.writes(np.array([0]))))
        # Evicts dirty line 0.
        c.access_lines(*segment(TraceChunk.reads(np.array([128]))))
        assert c.stats.evictions == 1
        assert c.stats.writebacks == 1
        # Clean eviction produces no writeback.
        c.access_lines(*segment(TraceChunk.reads(np.array([0]))))
        assert c.stats.writebacks == 1

    def test_lru_order(self):
        # 1 set, 2 ways: access 0, 1 (full), touch 0 again, then 2 evicts 1.
        c = Cache(CacheSpec("t", 128, 64, 2))
        c.access_lines(*segment(TraceChunk.reads(np.array([0, 64, 0, 128]))))
        miss_lines, _, _ = c.access_lines(*segment(TraceChunk.reads(np.array([0, 64]))))
        # 0 survived (was MRU), 1 was evicted.
        np.testing.assert_array_equal(miss_lines, [1])


class TestMissStream:
    def test_miss_stream_feeds_next_level(self):
        c = small_cache()
        chunk = TraceChunk.reads(np.array([0, 64, 0, 64, 128]))
        miss_lines, miss_w, miss_tags = c.access_lines(*segment(chunk))
        np.testing.assert_array_equal(miss_lines, [0, 1, 2])
        assert not miss_w.any()

    def test_tags_propagate(self):
        c = small_cache()
        chunk = TraceChunk(
            np.array([0, 64], dtype=np.uint64),
            np.array([False, True]),
            np.array([1, 2], dtype=np.uint8),
        )
        _, _, tags = c.access_lines(*segment(chunk))
        np.testing.assert_array_equal(tags, [1, 2])
        assert c.stats.tag_read_misses[1] == 1
        assert c.stats.tag_write_misses[2] == 1

    def test_length_mismatch(self):
        c = small_cache()
        with pytest.raises(SimulationError):
            c.access_lines(np.array([0]), np.array([False, True]))


class TestReset:
    def test_reset_clears_everything(self):
        c = small_cache()
        c.access_lines(*segment(TraceChunk.reads(np.array([0, 64]))))
        c.reset()
        assert c.stats.accesses == 0
        assert c.resident_lines == 0


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    assoc=st.sampled_from([1, 2, 4, 8]),
)
def test_against_naive_oracle(seed, assoc):
    """The tuned simulator must match a dict-based reference LRU."""
    spec = CacheSpec("t", 64 * 8 * assoc, 64, assoc)
    c = Cache(spec)
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, 64 * 64, size=400, dtype=np.uint64) * 8

    # Reference: per-set ordered dicts.
    nsets = spec.n_sets
    ref_sets = [dict() for _ in range(nsets)]
    ref_misses = []
    for a in addrs.tolist():
        line = a >> 6
        s = ref_sets[line & (nsets - 1)]
        if line in s:
            s.pop(line)
            s[line] = None
        else:
            ref_misses.append(line)
            s[line] = None
            if len(s) > assoc:
                s.pop(next(iter(s)))

    miss_lines, _, _ = c.access_lines(*segment(TraceChunk.reads(addrs)))
    np.testing.assert_array_equal(miss_lines, ref_misses)


def test_hit_rate_monotone_in_capacity():
    """Bigger LRU caches never miss more on the same trace (inclusion)."""
    trace = list(working_set_loop_trace(4096, passes=2))
    misses = []
    for size in (512, 1024, 2048, 4096, 8192):
        c = Cache(CacheSpec("t", size, 64, size // 64))  # fully associative
        for chunk in trace:
            c.access_lines(*segment(chunk))
        misses.append(c.stats.misses)
    assert misses == sorted(misses, reverse=True)
