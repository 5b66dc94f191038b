"""End-to-end integration: library -> simulator -> experiments -> outputs."""

import numpy as np
import pytest

from repro import (
    CurveMatrix,
    ExperimentRunner,
    SampleConfig,
    naive_matmul,
    recursive_matmul,
    relayout,
    tiled_matmul,
)
from repro.experiments import ResultSet, fig4_speedup, full_grid
from repro.kernels import reference_matmul, transpose
from repro.perf import CachegrindSim, events_from_hierarchy
from repro.sim import CacheSpec, MachineSpec, MulticoreTraceSim, SocketSim
from repro.trace import (
    MatmulTraceSpec,
    lower_chunks,
    naive_matmul_trace,
    trace_length,
)


class TestKernelPipeline:
    def test_all_kernels_agree_across_layouts(self):
        """One matrix pushed through every kernel and layout combination."""
        rng = np.random.default_rng(99)
        dense_a = rng.random((32, 32))
        dense_b = rng.random((32, 32))
        want = dense_a @ dense_b
        for layout in ("rm", "mo", "ho"):
            a = CurveMatrix.from_dense(dense_a, layout)
            b = CurveMatrix.from_dense(dense_b, layout)
            for result in (
                naive_matmul(a, b),
                recursive_matmul(a, b, leaf=8),
                tiled_matmul(a, b, tile=8),
            ):
                np.testing.assert_allclose(result.to_dense(), want, rtol=1e-10)

    def test_layout_roundtrip_through_operations(self):
        rng = np.random.default_rng(98)
        dense = rng.random((16, 16))
        m = CurveMatrix.from_dense(dense, "rm")
        m = relayout(m, "mo")
        m = transpose(m)
        m = relayout(m, "ho")
        m = transpose(m)
        np.testing.assert_allclose(m.to_dense(), dense, rtol=1e-12)


class TestTraceKernelConsistency:
    def test_trace_addresses_match_kernel_gathers(self):
        """The trace generator and the executable kernel must describe the
        same computation: per-matrix access counts line up with the op
        counts, and every address decodes to a valid element."""
        n = 8
        spec = MatmulTraceSpec.uniform(n, "mo")
        total = sum(len(c) for c in naive_matmul_trace(spec))
        assert total == trace_length(n)
        from repro.kernels import naive_opcount

        ops = naive_opcount(n, "mo")
        assert total == ops.loads + ops.stores - n * n  # C load is the write slot

    def test_simulated_counters_flow_to_papi_events(self):
        machine = MachineSpec(
            name="t", sockets=1, cores_per_socket=1,
            l1=CacheSpec("L1", 512, 64, 2),
            l2=CacheSpec("L2", 1024, 64, 2),
            l3=CacheSpec("L3", 4096, 64, 4),
        )
        sim = MulticoreTraceSim(machine, MatmulTraceSpec.uniform(8, "rm"))
        result = sim.run()
        events = events_from_hierarchy(result)
        assert events["PAPI_LD_INS"] + events["PAPI_SR_INS"] == trace_length(8)
        assert events["PAPI_L3_TCM"] <= events["PAPI_L2_DCM"] <= events["PAPI_L1_DCM"]


class TestExperimentPipeline:
    def test_grid_to_json_to_figures(self, tmp_path):
        runner = ExperimentRunner()
        subset = [c for c in full_grid() if c.size_exp == 10][:24]
        rs = runner.run_grid(subset)
        path = tmp_path / "grid.json"
        rs.to_json(path)
        back = ResultSet.from_json(path)
        assert len(back) == 24
        for cfg in subset:
            assert back.get(cfg).seconds == pytest.approx(rs.get(cfg).seconds)

    def test_fig4_consistent_with_runner_times(self):
        runner = ExperimentRunner()
        panels = fig4_speedup(runner)
        mo = next(s for s in panels[11] if s.label == "MO")
        t1 = runner.run(SampleConfig("mo", 11, "ondemand", "1s")).seconds
        t16 = runner.run(SampleConfig("mo", 11, "ondemand", "16d")).seconds
        assert mo.y[-1] == pytest.approx(t1 / t16)

    def test_cachegrind_totals_balance(self):
        from repro.sim import CACHEGRIND_LIKE, scaled_machine

        machine = scaled_machine(CACHEGRIND_LIKE, 256)
        sim = CachegrindSim(machine)
        spec = MatmulTraceSpec.uniform(32, "ho")
        report = sim.run(
            lower_chunks(naive_matmul_trace(spec, rows=[15, 16]), 64)
        )
        per_tag_ll = sum(t.ll_misses for t in report.per_tag)
        assert per_tag_ll == report.ll_misses
