"""Worker-side metrics aggregation across the process boundary.

PR 5 shipped worker span propagation but attached workers *without* a
metrics registry, so worker-side cache counters silently vanished from
session snapshots.  The process pool (``repro.robust.StreamPool``) now
installs a fresh registry in each worker and merges its export back into
the parent's, for the parallel engine and the study fan-out alike.
"""

from repro import obs
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.report import load_trace
from repro.sim import CacheSpec, MachineSpec, MulticoreTraceSim
from repro.trace import MatmulTraceSpec


def machine():
    return MachineSpec(
        name="mini16",
        sockets=2,
        cores_per_socket=8,
        l1=CacheSpec("L1", 512, 64, 2),
        l2=CacheSpec("L2", 2048, 64, 4),
        l3=CacheSpec("L3", 16 * 1024, 64, 8),
    )


class TestRegistryMerge:
    def test_counters_add_gauges_overwrite(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.count("hits", 3, level="L1")
        b.count("hits", 4, level="L1")
        b.count("misses", 1)
        a.gauge("depth", 2)
        b.gauge("depth", 5)
        a.merge(b.export())
        snap = a.snapshot()
        assert snap["counters"]["hits{level=L1}"] == 7
        assert snap["counters"]["misses"] == 1
        assert snap["gauges"]["depth"] == 5

    def test_histograms_merge_exactly(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        ref = Histogram()
        for v, reg in [(1, a), (100, b), (3, b), (7, a)]:
            reg.observe("lat", v)
            ref.observe(v)
        a.merge(b.export())
        assert a.snapshot()["histograms"]["lat"] == ref.snapshot()

    def test_merge_into_empty(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.observe("lat", 2.0)
        b.count("n")
        a.merge(b.export())
        assert a.snapshot() == b.snapshot()

    def test_export_is_plain_data(self):
        import pickle

        r = MetricsRegistry()
        r.count("n", 2, k="v")
        r.observe("lat", 3)
        assert pickle.loads(pickle.dumps(r.export())) == r.export()


class TestWorkerContext:
    def test_metrics_only_session_yields_context(self, tmp_path):
        with obs.ObsSession(metrics=tmp_path / "m.json"):
            ctx = obs.worker_context()
            assert ctx is not None
            assert ctx.metrics and ctx.path is None

    def test_attach_installs_fresh_registry(self, tmp_path):
        with obs.ObsSession(metrics=tmp_path / "m.json"):
            obs.count("parent.only")
            ctx = obs.worker_context()
            parent_registry = obs.OBS.metrics
            with obs.attach(ctx):
                assert obs.metrics_active()
                assert obs.OBS.metrics is not parent_registry
                obs.count("worker.only")
                worker_snap = obs.OBS.metrics.snapshot()
            assert obs.OBS.metrics is parent_registry
        assert worker_snap["counters"] == {"worker.only": 1}

    def test_off_means_none(self):
        assert obs.worker_context() is None


class TestParallelAggregation:
    def test_parallel_snapshot_matches_serial(self, tmp_path):
        spec = MatmulTraceSpec.uniform(16, "rm")

        def counters(workers):
            with obs.ObsSession(metrics=tmp_path / f"m{workers}.json"):
                sim = MulticoreTraceSim(
                    machine(), spec, threads=2, sockets_used=1,
                    workers=workers,
                )
                sim.run()
                return sim.result().l3.misses, obs.OBS.metrics.snapshot()

        misses_serial, serial = counters(None)
        misses_parallel, parallel = counters(2)
        assert misses_serial == misses_parallel

        def cache_counters(snap):
            return {
                k: v for k, v in snap["counters"].items()
                if k.startswith("cache.")
            }

        # Worker-side cache counters now ride home with the result
        # stream: the parallel snapshot reports the same cache work the
        # serial one does.
        assert cache_counters(parallel) == cache_counters(serial)
        assert cache_counters(parallel)  # and they are not trivially empty


class TestWorkerPeakRss:
    """Pool workers are not the caller's children, so its
    ``RUSAGE_CHILDREN`` misses them; each reports its own peak."""

    def test_each_worker_reports_its_peak(self, tmp_path):
        spec = MatmulTraceSpec.uniform(16, "rm")
        trace = tmp_path / "t.jsonl"
        with obs.ObsSession(trace=trace, metrics=tmp_path / "m.json"):
            MulticoreTraceSim(
                machine(), spec, threads=2, sockets_used=1, workers=2
            ).run()
            snap = obs.OBS.metrics.snapshot()
        peak = snap["histograms"]["pool.worker_peak_rss_mb"]
        assert peak["count"] == 2 and peak["max"] > 0
        workers = [s for s in load_trace(trace)["spans"]
                   if s["name"] == "parallel.worker"]
        assert len(workers) == 2
        assert all(s["attrs"]["peak_rss_mb"] > 0 for s in workers)


def study_snapshot(tmp_path, run, workers):
    with obs.ObsSession(metrics=tmp_path / f"m{workers}.json"):
        run(workers)
        return obs.OBS.metrics.snapshot()


class TestStudyPoolMetrics:
    """Study workers' counters reach the parent: pool equals serial."""

    def assert_pool_metered(self, tmp_path, run):
        serial = study_snapshot(tmp_path, run, None)
        pool = study_snapshot(tmp_path, run, 2)
        assert pool["counters"] == serial["counters"]
        assert any(k.startswith("cache.") for k in pool["counters"])
        assert not any("workers_unmetered" in k for k in pool["gauges"])

    def test_mrc_pool_counters_match_serial(self, tmp_path):
        from repro.experiments import run_mrc_study

        self.assert_pool_metered(tmp_path, lambda workers: run_mrc_study(
            n=16, schemes=("rm", "mo"), u_values=(1.0,), sample_rows=1,
            workers=workers,
        ))

    def test_cachegrind_pool_counters_match_serial(self, tmp_path):
        from repro.experiments import run_cachegrind_study

        self.assert_pool_metered(tmp_path, lambda workers: run_cachegrind_study(
            n=32, n_rows=2, workers=workers,
        ))
