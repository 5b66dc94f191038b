"""Golden-regression suite: tiny end-to-end runs pinned to committed JSON.

These catch *unintentional* numeric drift anywhere in the pipeline —
trace generation, cache simulation, MRC stacking, the sweep engine.
Intentional changes regenerate the artifacts::

    PYTHONPATH=src python -m pytest tests/golden --update-golden
"""

from dataclasses import asdict

from repro.experiments import run_cachegrind_study, run_mrc_study
from repro.experiments.configs import SampleConfig
from repro.experiments.sweep import SweepEngine


class TestCachegrindGolden:
    def test_tiny_study(self, golden):
        study = run_cachegrind_study(n=32, n_rows=3)
        golden.check(
            "cachegrind_n32_rows3",
            {
                "n": study.n,
                "rows": list(study.rows),
                "reports": {
                    s: asdict(r) for s, r in sorted(study.reports.items())
                },
            },
        )


class TestMrcGolden:
    def test_tiny_study(self, golden):
        curves = run_mrc_study(
            n=16, schemes=("rm", "mo"), u_values=(1.0, 4.0), sample_rows=1
        )
        golden.check(
            "mrc_n16_rm_mo",
            [
                {
                    "scheme": c.scheme,
                    "n": c.n,
                    "assoc": c.assoc,
                    "mpi_capacity": sorted(c.mpi_capacity.items()),
                    "mpi_total": sorted(c.mpi_total.items()),
                }
                for c in curves
            ],
        )


class TestQueryGolden:
    def test_tiny_study(self, golden):
        from repro.experiments import run_query_study

        study = run_query_study(grid_side=8, tile_side=4, n_queries=8)
        golden.check(
            "query_g8_t4_q8",
            {
                "grid_side": study.grid_side,
                "tile_side": study.tile_side,
                "fetch_chunks": study.fetch_chunks,
                "cells": [
                    {
                        "workload": w,
                        "ordering": o,
                        "chunks_per_query": study.cell(w, o).chunks_per_query,
                        "utilization": study.cell(w, o).utilization,
                        "mean_run_chunks": study.cell(w, o).mean_run_chunks,
                        "seeks_per_query": study.cell(w, o).seeks_per_query,
                        "fetched_bytes": study.cell(w, o).fetched_bytes,
                        "useful_bytes": study.cell(w, o).useful_bytes,
                        "io_seconds": study.cell(w, o).io_seconds,
                        "cache_miss_rate": study.cell(w, o).cache_miss_rate,
                        "energy_j": study.cell(w, o).energy_j,
                        "stream": study.cell(w, o).stream,
                    }
                    for w in study.workloads
                    for o in study.orderings
                ],
            },
        )


class TestSweepGolden:
    CONFIGS = [
        SampleConfig(scheme, size, 2.6, threads)
        for scheme in ("rm", "mo")
        for size in (10, 11)
        for threads in ("1s", "8s")
    ]

    def test_small_grid(self, golden):
        results = SweepEngine(workers=1, cache_dir=None).run(self.CONFIGS)
        golden.check(
            "sweep_8pt_grid", [r.to_dict() for r in results]
        )

    def test_small_grid_sampled(self, golden):
        """The same points re-measured through the RAPL chain (quantized
        wrapping counter, 10 Hz reads, trapezoid)."""
        results = SweepEngine(
            workers=1, cache_dir=None, measure="sampled"
        ).run(self.CONFIGS)
        golden.check(
            "sweep_8pt_grid_sampled", [r.to_dict() for r in results]
        )


class TestAdviseGolden:
    def test_advise_core_payload(self, golden):
        """The advisor's deterministic core: same request + same
        calibration -> byte-identical curves and recommendation.  The
        payload deliberately excludes the service envelope (trace ids,
        degradation flags), which is per-request by design."""
        from repro.serve import advise_payload, evaluate_analytic
        from repro.serve.schemas import validate_advise_request
        from repro.sim.analytic import PerformanceModel

        request = validate_advise_request(
            {
                "schemes": ["ho", "mo", "rm"],
                "size_exp": 11,
                "placement": "8d",
                "frequencies": [1.6, 1.8, 2.2, 2.6, "ondemand"],
                "objective": "edp",
            }
        )
        model = PerformanceModel()
        results = evaluate_analytic(request, model)
        golden.check(
            "advise_ho_mo_rm_s11_8d_edp", advise_payload(request, results)
        )
