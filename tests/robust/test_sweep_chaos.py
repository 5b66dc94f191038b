"""Chaos suite for the sweep engine: interruption and on-disk cache
hygiene."""

import json
import os
import subprocess
import sys

import pytest

from repro.experiments import ExperimentRunner
from repro.experiments.configs import full_grid
from repro.experiments.sweep import SweepCache, SweepEngine


def small_grid(n=8):
    return full_grid()[:n]


def keys(results):
    return [(r.config.key, r.seconds, r.package_j) for r in results]


def reference(configs):
    runner = ExperimentRunner()
    return [runner.run(c) for c in configs]


class TestInterrupt:
    def test_interrupted_sweep_keeps_every_finished_point(
        self, tmp_path, monkeypatch
    ):
        # Ctrl-C lands while the k-th cache miss is being evaluated.
        k = 5
        configs = small_grid(12)
        real_run = ExperimentRunner.run
        calls = []

        def interrupted_run(runner, config):
            calls.append(config.key)
            if len(calls) == k:
                raise KeyboardInterrupt
            return real_run(runner, config)

        monkeypatch.setattr(ExperimentRunner, "run", interrupted_run)
        engine = SweepEngine(cache_dir=tmp_path)
        with pytest.raises(KeyboardInterrupt):
            engine.run(configs)
        monkeypatch.undo()

        # Every point finished before the interrupt is on disk, and
        # nothing else is: no staging debris, no partial entry.
        assert sorted(p.name for p in engine.cache.dir.iterdir()) == sorted(
            f"{c.key}.json" for c in configs[: k - 1]
        )
        log = tmp_path / "telemetry.jsonl"
        events = [json.loads(line) for line in log.read_text().splitlines()]
        assert events[-1]["event"] == "sweep_interrupted"
        assert events[-1]["done"] == k - 1

        rerun = SweepEngine(cache_dir=tmp_path)
        results = rerun.run(configs)
        assert rerun.stats.cache_hits == k - 1
        assert list(results) == list(ExperimentRunner().run_grid(configs))


class TestCacheHygiene:
    FP = "f" * 64

    def make_cache(self, root):
        return SweepCache(root, self.FP)

    def test_stale_tmp_from_dead_pid_removed(self, tmp_path):
        cache = self.make_cache(tmp_path)
        cache.dir.mkdir(parents=True)
        # A real pid that is certainly dead: a subprocess we already reaped.
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        stale = cache.dir / f".x.json.{proc.pid}.tmp"
        stale.write_text("{}")
        self.make_cache(tmp_path)  # re-opening sweeps debris
        assert not stale.exists()

    def test_unparseable_tmp_removed(self, tmp_path):
        cache = self.make_cache(tmp_path)
        cache.dir.mkdir(parents=True)
        junk = cache.dir / ".x.json.notapid.tmp"
        junk.write_text("{}")
        self.make_cache(tmp_path)
        assert not junk.exists()

    def test_live_foreign_writer_tmp_kept(self, tmp_path):
        # pid 1 exists and isn't ours; a *recent* tmp from a live writer
        # must survive the sweep (its os.replace will win the race).
        cache = self.make_cache(tmp_path)
        cache.dir.mkdir(parents=True)
        live = cache.dir / ".x.json.1.tmp"
        live.write_text("{}")
        self.make_cache(tmp_path)
        assert live.exists()

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        engine = SweepEngine(cache_dir=tmp_path)
        cfg = small_grid(1)[0]
        result = ExperimentRunner(engine.model).run(cfg)
        engine.cache.put(result)
        assert engine.cache.get(cfg) is not None
        path = engine.cache._path(cfg)
        path.write_text("{ not json")
        assert engine.cache.get(cfg) is None

    def test_truncated_cache_entry_is_a_miss(self, tmp_path):
        engine = SweepEngine(cache_dir=tmp_path)
        cfg = small_grid(1)[0]
        engine.cache.put(ExperimentRunner(engine.model).run(cfg))
        path = engine.cache._path(cfg)
        path.write_bytes(path.read_bytes()[:-20])
        assert engine.cache.get(cfg) is None

    def test_corrupt_entry_recomputed_not_fatal(self, tmp_path):
        configs = small_grid(4)
        engine = SweepEngine(cache_dir=tmp_path)
        engine.run(configs)
        victim = engine.cache._path(configs[0])
        victim.write_text("garbage")
        fresh = SweepEngine(cache_dir=tmp_path)
        results = fresh.run(configs)
        assert keys(results) == keys(reference(configs))
        assert fresh.stats.cache_hits == 3  # the corrupt one was a miss

    def test_own_pid_tmp_removed_on_open(self, tmp_path):
        # Our own pid can't have a live writer during __init__.
        cache = self.make_cache(tmp_path)
        cache.dir.mkdir(parents=True)
        own = cache.dir / f".x.json.{os.getpid()}.tmp"
        own.write_text("{}")
        self.make_cache(tmp_path)
        assert not own.exists()


def _concurrent_put(root, fingerprint, barrier):
    """Spawn-process body: race another writer committing the same entry."""
    from repro.experiments.configs import full_grid
    from repro.experiments.runner import ExperimentRunner
    from repro.experiments.sweep import SweepCache

    result = ExperimentRunner().run(full_grid()[0])
    cache = SweepCache(root, fingerprint, "model")
    barrier.wait()  # both writers commit as close together as possible
    cache.put(result)


class TestConcurrentCacheWriters:
    def test_same_entry_two_processes_one_valid_result(self, tmp_path):
        import multiprocessing

        from repro.experiments.sweep import calibration_fingerprint
        from repro.sim.analytic import PerformanceModel

        fp = calibration_fingerprint(PerformanceModel())
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(
                target=_concurrent_put, args=(str(tmp_path), fp, barrier)
            )
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60.0)
        assert all(p.exitcode == 0 for p in procs)

        cache = SweepCache(tmp_path, fp, "model")
        cfg = full_grid()[0]
        cached = cache.get(cfg)
        # Exactly one valid entry (last atomic replace wins; both wrote
        # identical bytes) and zero staging debris.
        assert cached is not None
        assert keys([cached]) == keys(reference([cfg]))
        entries = [p for p in cache.dir.iterdir()]
        assert [p.name for p in entries] == [f"{cfg.key}.json"]
