"""Multi-level hierarchy and socket simulation."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import CacheSpec, MachineSpec, SocketSim, scaled_machine
from repro.sim.hierarchy import CoreHierarchy
from repro.trace import TraceChunk, lower_chunks, sequential_trace


def segment(chunk, line_bytes=64):
    """``chunk`` lowered to the line segment a cache level takes."""
    (seg,) = lower_chunks([chunk], line_bytes)
    return seg


@pytest.fixture
def tiny_machine():
    return MachineSpec(
        name="tiny",
        sockets=2,
        cores_per_socket=2,
        l1=CacheSpec("L1", 512, 64, 2),
        l2=CacheSpec("L2", 1024, 64, 2),
        l3=CacheSpec("L3", 4096, 64, 4),
    )


class TestCoreHierarchy:
    def test_l1_filters_l2(self, tiny_machine):
        h = CoreHierarchy(tiny_machine)
        chunk = TraceChunk.reads(np.arange(64, dtype=np.uint64) * 8)
        h.access_lines(*segment(chunk))  # 8 lines: all L1-resident
        h.access_lines(*segment(chunk))  # second pass hits entirely in L1
        assert h.l1.stats.accesses == 128
        assert h.l2.stats.accesses == 8  # only the 8 cold misses reach L2

    def test_inclusive_behaviour(self, tiny_machine):
        h = CoreHierarchy(tiny_machine)
        lines, _, _ = h.access_lines(
            *segment(TraceChunk.reads(np.arange(256, dtype=np.uint64) * 64))
        )
        # Streaming 256 distinct lines misses everywhere.
        assert h.l1.stats.misses == 256
        assert h.l2.stats.misses == 256
        assert len(lines) == 256


class TestSocketSim:
    def test_private_l1_shared_l3(self, tiny_machine):
        s = SocketSim(tiny_machine, n_cores=2)
        chunk = TraceChunk.reads(np.arange(8, dtype=np.uint64) * 64)
        s.access_lines(0, *segment(chunk))
        s.access_lines(1, *segment(chunk))
        r = s.result()
        # Each core misses privately, but the second core's stream hits in
        # the shared L3.
        assert r.l1.misses == 16
        assert r.l3.accesses == 16
        assert r.l3.misses == 8
        assert r.dram_lines == 8

    def test_core_out_of_range(self, tiny_machine):
        s = SocketSim(tiny_machine, n_cores=1)
        with pytest.raises(SimulationError):
            s.access_lines(1, *segment(TraceChunk.reads(np.array([0]))))

    def test_too_many_cores(self, tiny_machine):
        with pytest.raises(SimulationError):
            SocketSim(tiny_machine, n_cores=3)

    def test_reset(self, tiny_machine):
        s = SocketSim(tiny_machine, n_cores=1)
        s.access_lines(0, *segment(TraceChunk.reads(np.array([0]))))
        s.reset()
        r = s.result()
        assert r.l1.accesses == 0
        assert r.dram_lines == 0

    def test_result_dram_bytes(self, tiny_machine):
        s = SocketSim(tiny_machine, n_cores=1)
        chunk = TraceChunk.reads(np.arange(4, dtype=np.uint64) * 64)
        s.access_lines(0, *segment(chunk))
        assert s.result().dram_bytes == 4 * 64

    def test_result_dram_bytes_non64_line(self):
        # dram_bytes must scale with the configured line size, not a
        # hardcoded 64.
        m = MachineSpec(
            name="tiny128",
            sockets=1,
            cores_per_socket=1,
            l1=CacheSpec("L1", 1024, 128, 2),
            l2=CacheSpec("L2", 2048, 128, 2),
            l3=CacheSpec("L3", 8192, 128, 4),
        )
        s = SocketSim(m, n_cores=1)
        chunk = TraceChunk.reads(np.arange(4, dtype=np.uint64) * 128)
        s.access_lines(0, *segment(chunk, line_bytes=128))
        r = s.result()
        assert r.line_bytes == 128
        assert r.dram_bytes == 4 * 128
