"""Adversarial access patterns: conflict misses, pathological strides.

The analytic model's RM growth term exists because real machines suffer
beyond pure capacity misses; these tests pin down the set-associative
behaviours the exact simulator must reproduce.
"""

import numpy as np
import pytest

from repro.sim import Cache, CacheSpec
from repro.trace import TraceChunk, lower_chunks


def segment(chunk, line_bytes=64):
    """``chunk`` lowered to the line segment a cache level takes."""
    (seg,) = lower_chunks([chunk], line_bytes)
    return seg


class TestConflictMisses:
    def test_same_set_thrash_despite_tiny_footprint(self):
        # 1 KB, 2-way, 64 B lines -> 8 sets.  Three lines 512 B apart all
        # map to set 0; cycling them always misses although only 192 B are
        # live — the classic conflict pathology of power-of-two strides
        # (exactly what a 2^k matrix column walk does).
        c = Cache(CacheSpec("t", 1024, 64, 2))
        addrs = np.tile(np.array([0, 512, 1024], dtype=np.uint64), 20)
        c.access_lines(*segment(TraceChunk.reads(addrs)))
        assert c.stats.hits == 0
        assert c.stats.misses == 60

    def test_full_associativity_fixes_it(self):
        c = Cache(CacheSpec("t", 1024, 64, 16))  # fully associative
        addrs = np.tile(np.array([0, 512, 1024], dtype=np.uint64), 20)
        c.access_lines(*segment(TraceChunk.reads(addrs)))
        assert c.stats.misses == 3  # compulsory only

    def test_column_walk_of_pow2_matrix_conflicts(self):
        # A column of a 512x512 double matrix strides 4096 B: every line
        # lands in the same set of a small cache; repeated column sweeps
        # get no reuse even though the cache could hold 1/8th of a column.
        spec = CacheSpec("t", 32 * 1024, 64, 8)  # 64 sets
        c = Cache(spec)
        stride = 512 * 8
        col = np.arange(512, dtype=np.uint64) * stride
        for _ in range(3):
            c.access_lines(*segment(TraceChunk.reads(col)))
        assert c.stats.hits == 0

    def test_offset_padding_restores_reuse(self):
        # The classic fix: pad the leading dimension so lines spread over
        # sets.  With stride 4096+64 the same sweep hits on passes 2 and 3
        # for the lines that fit.
        spec = CacheSpec("t", 32 * 1024, 64, 8)
        c = Cache(spec)
        stride = 512 * 8 + 64
        col = np.arange(512, dtype=np.uint64) * stride
        for _ in range(3):
            c.access_lines(*segment(TraceChunk.reads(col)))
        assert c.stats.hits > 0


class TestWrapAndEdgeAddresses:
    def test_large_addresses(self):
        c = Cache(CacheSpec("t", 1024, 64, 2))
        base = np.uint64(2**48)
        addrs = base + np.arange(16, dtype=np.uint64) * 64
        c.access_lines(*segment(TraceChunk.reads(addrs)))
        assert c.stats.misses == 16

    def test_empty_chunk(self):
        c = Cache(CacheSpec("t", 1024, 64, 2))
        lines, w, t = c.access_lines(*segment(
            TraceChunk.reads(np.empty(0, dtype=np.uint64))
        ))
        assert len(lines) == 0
        assert c.stats.accesses == 0

    def test_single_set_cache(self):
        c = Cache(CacheSpec("t", 128, 64, 2))  # 1 set, 2 ways
        addrs = np.array([0, 64, 128], dtype=np.uint64)
        c.access_lines(*segment(TraceChunk.reads(addrs)))
        assert c.stats.misses == 3
        assert c.stats.evictions == 1
