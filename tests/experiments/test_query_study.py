"""Chunked-store query study."""

import pytest

from repro.errors import ExperimentError
from repro.sim import available_backends
from repro.experiments.query_study import (
    _store_io,
    render_query_table,
    run_query_study,
)
from repro.trace.query_trace import QueryStoreSpec, _resolve_bbox


class TestStoreIoClosedForm:
    """Degenerate geometries with pencil-and-paper utilization."""

    @pytest.mark.parametrize("ordering", ["rm", "mo", "ho"])
    def test_full_grid_bbox_is_100_percent(self, ordering):
        # A query touching every chunk fully fetches the whole store:
        # utilization is exactly 1.0 under every ordering and any
        # coalescing factor that divides the store.
        spec = QueryStoreSpec(grid_side=4, tile_side=4, ordering=ordering)
        side = spec.side_points
        q = _resolve_bbox(spec, "bbox", 0, 0, side - 1, side - 1)
        for fetch_chunks in (1, 4):
            io = _store_io(
                [q.positions], [q.useful_bytes], spec.chunk_bytes,
                fetch_chunks, seek_s=1e-4, store_gbps=1.0,
            )
            assert io["utilization"] == 1.0
            assert io["seeks"] == 1  # the whole store is one run

    @pytest.mark.parametrize("ordering", ["rm", "mo", "ho"])
    def test_single_point_query(self, ordering):
        spec = QueryStoreSpec(grid_side=4, tile_side=4, ordering=ordering)
        q = _resolve_bbox(spec, "bbox", 5, 9, 5, 9)
        io = _store_io(
            [q.positions], [q.useful_bytes], spec.chunk_bytes,
            1, seek_s=1e-4, store_gbps=1.0,
        )
        # One point of one chunk: elem_bytes / chunk_bytes.
        assert io["utilization"] == spec.elem_bytes / spec.chunk_bytes
        assert io["fetched_bytes"] == spec.chunk_bytes
        assert io["seeks"] == 1

    def test_io_time_model(self):
        spec = QueryStoreSpec(grid_side=4, tile_side=4, ordering="rm")
        q = _resolve_bbox(spec, "bbox", 0, 0, spec.side_points - 1, 3)
        io = _store_io(
            [q.positions], [q.useful_bytes], spec.chunk_bytes,
            1, seek_s=0.5, store_gbps=1.0,
        )
        expected = io["seeks"] * 0.5 + io["fetched_bytes"] / 1e9
        assert io["io_seconds"] == pytest.approx(expected)


class TestRunQueryStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return run_query_study(grid_side=32, tile_side=4, n_queries=32)

    def test_reproduces_utilization_ordering(self, study):
        # The related-work headline: Hilbert >= Morton > row-major
        # chunk utilization on bbox workloads.
        util = {o: study.cell("bbox", o).utilization for o in ("rm", "mo", "ho")}
        assert util["ho"] >= util["mo"] > util["rm"]

    def test_speedup_follows_utilization(self, study):
        assert study.speedup("bbox", "ho") > 1.0
        assert study.speedup("bbox", "rm") == 1.0

    def test_identical_workload_across_orderings(self, study):
        # Same chunks fetched per query (count), same useful bytes.
        for w in study.workloads:
            cells = [study.cell(w, o) for o in study.orderings]
            assert len({c.useful_bytes for c in cells}) == 1
            assert len({c.chunks_per_query for c in cells}) == 1

    def test_energy_attached(self, study):
        for cell in study.results.values():
            assert cell.energy_j > 0.0
            assert cell.energy.total_j == pytest.approx(
                cell.energy.package_j + cell.energy.dram_j, rel=1e-9
            )

    def test_stream_metrics_present(self, study):
        cell = study.cell("bbox", "ho")
        assert cell.stream["accesses"] > 0
        assert 0.0 < cell.stream["utilization"] <= 1.0
        assert cell.stream["seq_runs"]["runs"] > 0

    def test_deterministic(self):
        a = run_query_study(grid_side=8, tile_side=4, n_queries=8)
        b = run_query_study(grid_side=8, tile_side=4, n_queries=8)
        for key in a.results:
            assert a.results[key].io_seconds == b.results[key].io_seconds
            assert a.results[key].utilization == b.results[key].utilization

    def test_render_table(self, study):
        table = render_query_table(study)
        assert "workload" in table and "util" in table
        for o in study.orderings:
            assert o.upper() in table

    def test_fast_engine_matches_exact(self):
        # Every backend against the reference loop the python backend runs.
        kw = dict(grid_side=8, tile_side=4, n_queries=8)
        a = run_query_study(**kw, backend="python")
        for backend in available_backends()[1:]:
            b = run_query_study(**kw, backend=backend)
            for key in a.results:
                assert (a.results[key].cache_miss_rate
                        == b.results[key].cache_miss_rate), (backend, key)

    @pytest.mark.parametrize("bad", [
        dict(n_queries=0), dict(fetch_chunks=0), dict(cache_ratio=0),
        dict(store_gbps=0.0), dict(workloads=("join",)),
    ])
    def test_rejects_bad_params(self, bad):
        with pytest.raises(ExperimentError):
            run_query_study(grid_side=8, **bad)
