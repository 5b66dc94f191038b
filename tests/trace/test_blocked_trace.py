"""Blocked-kernel traces: structure and the miss-reduction story."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import CacheSpec, MachineSpec, SocketSim
from repro.trace import (
    MatmulTraceSpec,
    TAG_A,
    TAG_B,
    TAG_C,
    blocked_trace_length,
    concat_chunks,
    lower_chunks,
    naive_matmul_trace,
    recursive_matmul_trace,
    tiled_matmul_trace,
)


@pytest.fixture
def machine():
    return MachineSpec(
        name="mini", sockets=1, cores_per_socket=1,
        l1=CacheSpec("L1", 512, 64, 1),
        l2=CacheSpec("L2", 2048, 64, 8),
        l3=CacheSpec("L3", 32 * 1024, 64, 16),
    )


def run_trace(machine, gen):
    s = SocketSim(machine, 1)
    total = 0
    for segment in lower_chunks(gen, 64):
        s.access_lines(0, *segment)
        total += len(segment[0])
    return total, s.result()


class TestStructure:
    def test_length_formula(self):
        spec = MatmulTraceSpec.uniform(32, "rm")
        total = sum(len(c) for c in tiled_matmul_trace(spec, 8))
        assert total == blocked_trace_length(32, 8)

    def test_recursive_same_length_as_tiled(self):
        spec = MatmulTraceSpec.uniform(32, "mo")
        t = sum(len(c) for c in tiled_matmul_trace(spec, 8))
        r = sum(len(c) for c in recursive_matmul_trace(spec, 8))
        assert t == r

    def test_tag_totals(self):
        n, t = 16, 4
        spec = MatmulTraceSpec.uniform(n, "rm")
        full = concat_chunks(list(tiled_matmul_trace(spec, t)))
        nb = n // t
        assert int((full.tag == TAG_A).sum()) == nb**3 * t * t
        assert int((full.tag == TAG_B).sum()) == nb**3 * t * t
        assert int((full.tag == TAG_C).sum()) == nb**2 * 2 * t * t  # read+write

    def test_c_written_once_per_tile(self):
        spec = MatmulTraceSpec.uniform(16, "rm")
        full = concat_chunks(list(tiled_matmul_trace(spec, 4)))
        writes = full.addr[full.is_write]
        assert len(writes) == 16 * 16
        assert len(np.unique(writes)) == 16 * 16

    def test_addresses_within_operand_ranges(self):
        spec = MatmulTraceSpec.uniform(16, "mo")
        full = concat_chunks(list(recursive_matmul_trace(spec, 4)))
        for tag, which in ((TAG_A, "a"), (TAG_B, "b"), (TAG_C, "c")):
            addrs = full.addr[full.tag == tag]
            lo = spec.base(which)
            assert addrs.min() >= lo
            assert addrs.max() < lo + spec.matrix_bytes

    def test_validation(self):
        spec = MatmulTraceSpec.uniform(16, "rm")
        with pytest.raises(SimulationError):
            list(tiled_matmul_trace(spec, 5))
        with pytest.raises(SimulationError):
            list(recursive_matmul_trace(spec, 3))


class TestMissStory:
    def test_blocking_slashes_misses(self, machine):
        # The algorithmic half of the ATLAS comparison: at a size whose
        # working set exceeds the LLC, the blocked kernels' LL misses are
        # an order of magnitude below the naive kernel's.
        spec = MatmulTraceSpec.uniform(64, "rm")
        _, naive = run_trace(machine, naive_matmul_trace(spec))
        _, tiled = run_trace(machine, tiled_matmul_trace(spec, 16))
        assert tiled.l3.misses < naive.l3.misses / 10

    def test_cache_oblivious_matches_tuned_blocking(self, machine):
        # The recursion never saw the cache size, yet lands at (or below)
        # the explicitly tiled kernel's misses — Bader/Zenger's point.
        spec = MatmulTraceSpec.uniform(64, "rm")
        _, tiled = run_trace(machine, tiled_matmul_trace(spec, 16))
        _, rec = run_trace(machine, recursive_matmul_trace(spec, 16))
        assert rec.l3.misses <= tiled.l3.misses * 1.1

    def test_morton_layout_helps_blocked_gathers(self, machine):
        # Aligned tiles of an MO layout are contiguous: fewer lines per
        # gather than RM's strided tiles.
        rm_spec = MatmulTraceSpec.uniform(64, "rm")
        mo_spec = MatmulTraceSpec.uniform(64, "mo")
        _, rm = run_trace(machine, recursive_matmul_trace(rm_spec, 8))
        _, mo = run_trace(machine, recursive_matmul_trace(mo_spec, 8))
        assert mo.l1.misses <= rm.l1.misses
