"""Durable whole-file publishes: fsync the data, then rename.

``repro.robust.fsutil.durable_write`` is the one write path of the sweep
cache and the metrics snapshots; the C library's build publishes through
its ``durable_replace``.  A rename that lands before the data is
fsynced can publish an empty file after a power loss, so every writer is
checked for the order file fsync → rename → directory fsync, and two
processes racing on one metrics path must leave one valid snapshot and
no staging debris.
"""

import json
import os

import pytest

from repro import _clib
from repro.experiments.configs import full_grid
from repro.experiments.runner import ExperimentRunner
from repro.experiments.sweep import SweepCache, calibration_fingerprint
from repro.obs.metrics import MetricsRegistry
from repro.robust import durable_write
from repro.sim import backend_available
from repro.sim.analytic import PerformanceModel

from tests.robust.test_journal import FsyncRecorder


def record_publish(monkeypatch):
    """Install the fsync recorder; return it and the file-sync count
    observed at each rename."""
    rec = FsyncRecorder()
    monkeypatch.setattr(os, "fsync", rec)
    syncs_at_rename = []
    real_replace = os.replace

    def replace(src, dst):
        syncs_at_rename.append(rec.file_syncs)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    return rec, syncs_at_rename


class TestFsyncBeforeRename:
    def test_durable_write(self, tmp_path, monkeypatch):
        rec, syncs_at_rename = record_publish(monkeypatch)
        durable_write(tmp_path / "a.json", "{}")
        assert syncs_at_rename == [1]
        assert os.stat(tmp_path).st_ino in rec.dir_paths
        assert [p.name for p in tmp_path.iterdir()] == ["a.json"]

    def test_sweep_cache_put(self, tmp_path, monkeypatch):
        model = PerformanceModel()
        cache = SweepCache(tmp_path, calibration_fingerprint(model))
        result = ExperimentRunner(model).run(full_grid()[0])
        rec, syncs_at_rename = record_publish(monkeypatch)
        cache.put(result)
        assert syncs_at_rename == [1]
        assert os.stat(cache.dir).st_ino in rec.dir_paths
        assert cache.get(result.config) is not None

    def test_metrics_write(self, tmp_path, monkeypatch):
        registry = MetricsRegistry()
        registry.count("c", 3)
        path = tmp_path / "m.json"
        rec, syncs_at_rename = record_publish(monkeypatch)
        registry.write(path)
        assert syncs_at_rename == [1]
        assert os.stat(tmp_path).st_ino in rec.dir_paths
        assert json.loads(path.read_text())["counters"] == {"c": 3}

    @pytest.mark.skipif(not backend_available("c"), reason="no C toolchain")
    def test_c_library_publish(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(_clib, "_state", None)
        rec, syncs_at_rename = record_publish(monkeypatch)
        assert _clib.load() is not None, _clib.unavailable_reason()
        # The library's rename follows its fsync; its digest sidecar's
        # rename follows the sidecar's own fsync.
        assert syncs_at_rename == [1, 2]
        artifact = _clib._artifact()
        assert os.stat(artifact.parent).st_ino in rec.dir_paths
        assert sorted(p.name for p in artifact.parent.iterdir()) == [
            artifact.name, artifact.name + ".sha256",
        ]

    def test_failed_write_leaves_no_tmp(self, tmp_path, monkeypatch):
        def broken_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", broken_fsync)
        try:
            durable_write(tmp_path / "a.json", "{}")
        except OSError:
            pass
        else:  # pragma: no cover - the fsync must have raised
            raise AssertionError("durable_write swallowed the fsync error")
        assert list(tmp_path.iterdir()) == []


def _write_metrics(path, value, barrier):
    """Spawn-process body: race another process on one metrics path."""
    registry = MetricsRegistry()
    registry.count("writer", value)
    barrier.wait()  # both writers publish as close together as possible
    for _ in range(20):
        registry.write(path)


class TestConcurrentMetricsWriters:
    def test_two_processes_one_valid_snapshot(self, tmp_path):
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        path = tmp_path / "m.json"
        procs = [
            ctx.Process(target=_write_metrics, args=(str(path), v, barrier))
            for v in (1, 2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60.0)
        assert all(p.exitcode == 0 for p in procs)
        snap = json.loads(path.read_text())
        assert snap["counters"]["writer"] in (1, 2)
        assert [p.name for p in tmp_path.iterdir()] == ["m.json"]
