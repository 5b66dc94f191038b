"""Cachegrind-style attribution (paper Section IV-A methodology)."""

import numpy as np
import pytest

from repro.perf import CachegrindSim
from repro.sim import CACHEGRIND_LIKE, scaled_machine
from repro.trace import MatmulTraceSpec, lower_chunks, naive_matmul_trace


@pytest.fixture
def machine():
    return scaled_machine(CACHEGRIND_LIKE, 256)


def run(sim, machine, spec, rows):
    """Replay ``rows`` of the naive kernel, lowered to the machine's lines."""
    chunks = naive_matmul_trace(spec, rows=rows)
    return sim.run(lower_chunks(chunks, machine.l1.line_bytes))


class TestAttribution:
    def test_per_tag_totals_match(self, machine):
        sim = CachegrindSim(machine)
        spec = MatmulTraceSpec.uniform(32, "rm")
        report = run(sim, machine, spec, [16])
        assert report.refs == 32 * (2 * 32 + 1)
        names = {t.name for t in report.per_tag}
        assert names == {"A", "B", "C"}
        assert sum(t.accesses for t in report.per_tag) == report.refs

    def test_b_dominates_rm_misses(self, machine):
        # Row-major: the B column walk owns nearly all data read misses.
        sim = CachegrindSim(machine)
        spec = MatmulTraceSpec.uniform(64, "rm")
        report = run(sim, machine, spec, [31, 32])
        by_name = {t.name: t for t in report.per_tag}
        assert by_name["B"].ll_read_misses > 5 * by_name["A"].ll_read_misses

    def test_write_misses_only_for_c(self, machine):
        sim = CachegrindSim(machine)
        spec = MatmulTraceSpec.uniform(32, "mo")
        report = run(sim, machine, spec, [16])
        by_name = {t.name: t for t in report.per_tag}
        assert by_name["A"].d1_write_misses == 0
        assert by_name["B"].d1_write_misses == 0

    def test_annotate_renders(self, machine):
        sim = CachegrindSim(machine)
        spec = MatmulTraceSpec.uniform(16, "ho")
        report = run(sim, machine, spec, [8])
        text = report.annotate()
        assert "D1  misses" in text
        assert "LL  misses" in text
        for name in ("A", "B", "C"):
            assert name in text

    def test_reset(self, machine):
        sim = CachegrindSim(machine)
        sim.consume(
            np.array([0, 1], dtype=np.uint64), np.zeros(2, dtype=bool),
            np.zeros(2, dtype=np.uint8),
        )
        sim.reset()
        assert sim.report().refs == 0


class TestPaperStudy:
    def test_mo_ho_ll_misses_comparable_rm_far_worse(self, machine):
        # Section IV-A's finding at scaled size: HO's LL read misses are at
        # most MO's (slightly better locality), and both are several times
        # below RM.
        results = {}
        for scheme in ("rm", "mo", "ho"):
            sim = CachegrindSim(machine)
            spec = MatmulTraceSpec.uniform(128, scheme)
            rows = [62, 63, 64, 65, 66]  # 5 rows near the middle (paper)
            report = run(sim, machine, spec, rows)
            results[scheme] = report.ll_read_misses
        assert results["ho"] <= results["mo"] * 1.05
        assert results["mo"] < results["rm"] / 3
