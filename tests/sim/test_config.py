"""Machine specifications (paper Table II) and scaling."""

from dataclasses import replace

import pytest

from repro.errors import SimulationError
from repro.sim import (
    CACHEGRIND_LIKE,
    CacheSpec,
    MachineSpec,
    SANDY_BRIDGE_E5_2670,
    scaled_machine,
)


class TestCacheSpec:
    def test_geometry(self):
        c = CacheSpec("L1", 32 * 1024, 64, 8)
        assert c.n_lines == 512
        assert c.n_sets == 64

    def test_rejects_non_pow2_line(self):
        with pytest.raises(SimulationError):
            CacheSpec("x", 1024, 48, 2)

    def test_rejects_non_pow2_sets(self):
        with pytest.raises(SimulationError):
            CacheSpec("x", 3 * 64 * 2, 64, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(SimulationError):
            CacheSpec("x", 0, 64, 8)


class TestMachineSpec:
    @pytest.mark.parametrize("level", ["l1", "l2", "l3"])
    def test_rejects_mixed_line_sizes(self, level):
        # Each level replays the line numbers of the level above: a 64 B
        # D1's misses read as 128 B LL lines would name the wrong lines.
        spec = replace(getattr(CACHEGRIND_LIKE, level), line_bytes=128)
        with pytest.raises(SimulationError, match="one line size"):
            replace(CACHEGRIND_LIKE, **{level: spec})


class TestTable2Platform:
    def test_sockets_and_cores(self):
        m = SANDY_BRIDGE_E5_2670
        # Table II: 2 processors, 8 cores each.
        assert m.sockets == 2
        assert m.cores_per_socket == 8
        assert m.total_cores == 16

    def test_l3_is_20mb_shared(self):
        assert SANDY_BRIDGE_E5_2670.l3.size_bytes == 20 * 1024 * 1024

    def test_frequencies_match_table3(self):
        assert SANDY_BRIDGE_E5_2670.frequencies_ghz == (1.2, 1.8, 2.6)

    def test_llc_aggregate(self):
        m = SANDY_BRIDGE_E5_2670
        assert m.llc_aggregate_bytes(2) == 2 * m.l3.size_bytes
        with pytest.raises(SimulationError):
            m.llc_aggregate_bytes(3)

    def test_memory_clock(self):
        # DDR3-1600: the knee the paper observes above 1.6 GHz core clock.
        assert SANDY_BRIDGE_E5_2670.memory_clock_ghz == pytest.approx(1.6)


class TestScaling:
    def test_shrinks_by_factor(self):
        m = scaled_machine(SANDY_BRIDGE_E5_2670, 64)
        assert m.l3.size_bytes == SANDY_BRIDGE_E5_2670.l3.size_bytes // 64
        assert m.l3.assoc == SANDY_BRIDGE_E5_2670.l3.assoc
        assert m.l3.line_bytes == 64

    def test_clamps_tiny_levels(self):
        m = scaled_machine(SANDY_BRIDGE_E5_2670, 4096)
        assert m.l1.size_bytes >= m.l1.line_bytes
        assert m.l1.assoc >= 1

    def test_rejects_non_pow2_factor(self):
        with pytest.raises(SimulationError):
            scaled_machine(SANDY_BRIDGE_E5_2670, 3)

    def test_cachegrind_model_single_core(self):
        assert CACHEGRIND_LIKE.total_cores == 1
