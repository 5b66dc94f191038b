"""Loop-order variants of the naive kernel's reference stream."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import CacheSpec, MachineSpec, SocketSim
from repro.trace import (
    MatmulTraceSpec,
    TAG_A,
    TAG_B,
    TAG_C,
    concat_chunks,
    lower_chunks,
    naive_matmul_trace,
)


def machine():
    return MachineSpec(
        name="mini", sockets=1, cores_per_socket=1,
        l1=CacheSpec("L1", 512, 64, 1),
        l2=CacheSpec("L2", 2048, 64, 8),
        l3=CacheSpec("L3", 32 * 1024, 64, 16),
    )


def ll_misses(gen):
    s = SocketSim(machine(), 1)
    for segment in lower_chunks(gen, 64):
        s.access_lines(0, *segment)
    return s.result().l3.misses


class TestStructure:
    @pytest.mark.parametrize("order", ["ikj", "jki"])
    def test_access_counts(self, order):
        n = 8
        spec = MatmulTraceSpec.uniform(n, "rm")
        full = concat_chunks(list(naive_matmul_trace(spec, loop_order=order)))
        # Per (outer, mid): 1 single-operand read + n stream reads + n C
        # read-modify-writes.
        assert len(full) == n * n * (1 + 3 * n)
        assert int(full.is_write.sum()) == n**3  # C written per inner iter
        if order == "ikj":
            assert int((full.tag == TAG_A).sum()) == n * n
            assert int((full.tag == TAG_B).sum()) == n**3
        else:
            assert int((full.tag == TAG_B).sum()) == n * n
            assert int((full.tag == TAG_A).sum()) == n**3
        assert int((full.tag == TAG_C).sum()) == 2 * n**3

    def test_ikj_c_addresses_are_row(self):
        n = 4
        spec = MatmulTraceSpec.uniform(n, "rm")
        full = concat_chunks(list(naive_matmul_trace(spec, rows=[2], loop_order="ikj")))
        c_addrs = np.unique(full.addr[full.tag == TAG_C])
        want = spec.base("c") + (2 * n + np.arange(n)) * 8
        np.testing.assert_array_equal(c_addrs, want)

    def test_invalid_order_rejected(self):
        spec = MatmulTraceSpec.uniform(8, "rm")
        with pytest.raises(SimulationError):
            list(naive_matmul_trace(spec, loop_order="kij"))


class TestLocalityStory:
    def test_ikj_fixes_rowmajor_b_misses(self):
        # The textbook result: for row-major storage, ikj turns the B
        # column walk into row streams — far fewer LL misses than ijk at
        # an out-of-cache size, despite the extra C traffic.
        spec = MatmulTraceSpec.uniform(64, "rm")
        rows = [31, 32]
        m_ijk = ll_misses(naive_matmul_trace(spec, rows=rows, loop_order="ijk"))
        m_ikj = ll_misses(naive_matmul_trace(spec, rows=rows, loop_order="ikj"))
        assert m_ikj < m_ijk / 3

    def test_morton_insensitive_to_loop_order(self):
        # Curve layouts buy symmetry: Morton's misses barely move across
        # loop orders — architecture- AND algorithm-obliviousness.
        spec = MatmulTraceSpec.uniform(64, "mo")
        rows = [31, 32]
        misses = {
            lo: ll_misses(naive_matmul_trace(spec, rows=rows, loop_order=lo))
            for lo in ("ijk", "ikj", "jki")
        }
        assert max(misses.values()) < 4 * min(misses.values())


class TestTraceLength:
    """trace_length must agree with the generator for every loop order."""

    @pytest.mark.parametrize("order", ["ijk", "ikj", "jki"])
    @pytest.mark.parametrize("rows", [None, [0], [1, 3, 6]])
    def test_matches_generator(self, order, rows):
        n = 8
        spec = MatmulTraceSpec.uniform(n, "rm")
        from repro.trace import trace_length

        got = sum(
            len(c) for c in naive_matmul_trace(spec, rows=rows, loop_order=order)
        )
        assert got == trace_length(n, rows=rows, loop_order=order)

    def test_formulae(self):
        from repro.trace import trace_length

        n = 8
        # ijk: per (i, j): 1 C read + n*(A, B) reads + 1 C write.
        assert trace_length(n) == n * n * (2 * n + 1)
        # ikj/jki: per middle iteration: 1 pivot read + n*(stream read +
        # C read-modify-write) = 1 + 3n accesses.
        assert trace_length(n, loop_order="ikj") == n * n * (3 * n + 1)
        assert trace_length(n, loop_order="jki") == n * n * (3 * n + 1)

    def test_invalid_order(self):
        from repro.trace import trace_length

        with pytest.raises(SimulationError):
            trace_length(8, loop_order="kij")
