"""Next-line prefetcher and loop-schedule ablation features."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import Cache, CacheSpec, CacheStats, MulticoreTraceSim, partition_rows_cyclic
from repro.sim.config import MachineSpec
from repro.trace import (
    MatmulTraceSpec,
    TraceChunk,
    lower_chunks,
    sequential_trace,
    trace_length,
)


def segment(chunk, line_bytes=64):
    """``chunk`` lowered to the line segment a cache level takes."""
    (seg,) = lower_chunks([chunk], line_bytes)
    return seg


class TestNextLinePrefetch:
    def test_sequential_stream_mostly_hits(self):
        # With next-line prefetch, a sequential line stream demand-misses
        # only on lines the prefetcher hasn't covered yet (the first one).
        c = Cache(CacheSpec("t", 8192, 64, 8), prefetch="next-line")
        lines = np.arange(64, dtype=np.uint64) * 64
        c.access_lines(*segment(TraceChunk.reads(lines)))
        assert c.stats.misses < 64 // 2 + 2
        assert c.stats.prefetches > 0

    def test_no_prefetch_baseline(self):
        c = Cache(CacheSpec("t", 8192, 64, 8))
        lines = np.arange(64, dtype=np.uint64) * 64
        c.access_lines(*segment(TraceChunk.reads(lines)))
        assert c.stats.misses == 64
        assert c.stats.prefetches == 0

    def test_random_stream_unhelped(self):
        # Strided far accesses gain nothing; prefetches just churn.
        spec = CacheSpec("t", 4096, 64, 4)
        base = Cache(spec)
        pf = Cache(spec, prefetch="next-line")
        addrs = (np.arange(200, dtype=np.uint64) * 8192)
        chunk = TraceChunk.reads(addrs)
        base.access_lines(*segment(chunk))
        pf.access_lines(*segment(chunk))
        assert pf.stats.misses == base.stats.misses

    def test_invalid_mode_rejected(self):
        with pytest.raises(SimulationError):
            Cache(CacheSpec("t", 1024, 64, 2), prefetch="stride")

    def test_prefetch_stats_merge(self):
        a = CacheStats(prefetches=3)
        b = CacheStats(prefetches=4)
        a.merge(b)
        assert a.prefetches == 7


class TestCyclicSchedule:
    def test_partition_rows_cyclic(self):
        parts = partition_rows_cyclic(10, 3)
        assert [list(p) for p in parts] == [[0, 3, 6, 9], [1, 4, 7], [2, 5, 8]]

    def test_covers_all_rows(self):
        parts = partition_rows_cyclic(17, 4)
        allrows = sorted(r for p in parts for r in p)
        assert allrows == list(range(17))

    def test_rejects_invalid(self):
        with pytest.raises(SimulationError):
            partition_rows_cyclic(0, 2)

    @pytest.fixture
    def machine(self):
        return MachineSpec(
            name="mini", sockets=1, cores_per_socket=4,
            l1=CacheSpec("L1", 512, 64, 2),
            l2=CacheSpec("L2", 2048, 64, 4),
            l3=CacheSpec("L3", 16 * 1024, 64, 8),
        )

    def test_schedules_same_total_work(self, machine):
        spec = MatmulTraceSpec.uniform(32, "mo")
        static = MulticoreTraceSim(machine, spec, 4, 1, schedule="static").run()
        cyclic = MulticoreTraceSim(machine, spec, 4, 1, schedule="cyclic").run()
        assert static.l1.accesses == cyclic.l1.accesses == trace_length(32)

    def test_unknown_schedule_rejected(self, machine):
        with pytest.raises(SimulationError):
            MulticoreTraceSim(
                machine, MatmulTraceSpec.uniform(8, "rm"), 2, 1, schedule="guided"
            )
