"""Differential suite: IR-streamed traces vs legacy in-memory chunk paths.

The acceptance bar for the columnar trace IR is *bit identity*: running
any consumer from a cached, mmap-streamed IR file must be
indistinguishable — every counter of every cache level, per-tag
attribution, DRAM traffic, and post-run cache contents — from the legacy
path that regenerates chunks in memory.  For ``MulticoreTraceSim`` that
reference is :mod:`tests.sim.multicore_oracle`, the deleted serial loop
over live chunks.  The matrix covers the host's replay path x
{in-process, 1, 2, 4 workers}, and the path without the C library
(``no_clib``) in-process, plus the cachegrind attributor, the MRC study, and the
worker residue frames (pack/unpack_miss_stream) with fault injection.

Streams that miss the cache build their shards' files while replaying
them, in-process or on a worker; :class:`TestWorkerBuiltShards` holds
those files to the reference builder byte for byte, and proves one
builder per fingerprint, no sweep inside a worker, crash safety
mid-build and the failure of an unusable cache root.
:class:`TestStudyShards` proves the same single trace path for the
cachegrind and MRC studies.

Spawn-safe: module-level file, no __main__ tricks.
"""

import multiprocessing as mp
import os
from dataclasses import dataclass

import numpy as np
import pytest

import repro.experiments.cachegrind_study as cachegrind_study
import repro.experiments.mrc_study as mrc_study
import repro.trace.ir as ir_mod
from repro import obs
from repro.errors import TraceError, WorkerCrashError
from repro.perf import CachegrindSim
from repro.robust import DegradedRunWarning, FaultPlan
from repro.sim import (
    CACHEGRIND_LIKE,
    CacheSpec,
    MachineSpec,
    MulticoreTraceSim,
    pack_miss_stream,
    scaled_machine,
    unpack_miss_stream,
)
from repro.trace import (
    MatmulTraceSpec,
    TraceIRCache,
    TraceIRReader,
    TraceShard,
    lower_chunks,
    matmul_trace_params,
    naive_matmul_trace,
    trace_fingerprint,
    trace_shards,
    write_trace_ir,
)
from repro.experiments import run_cachegrind_study, run_mrc_study

from tests.conftest import REPLAY_PATHS
from tests.sim.multicore_oracle import (
    assert_matches_oracle,
    machine,
    oracle,
    result_key,
)


def placements(replay_path):
    """Where a run can go on ``replay_path``: pool workers load the C
    library themselves, so without it only the in-process run can."""
    return (None,) if replay_path == "python" else (None, 1, 2, 4)


class TestMulticoreIdentity:
    """IR-fed streams vs live regeneration vs the serial oracle."""

    @pytest.mark.parametrize("replay_path", REPLAY_PATHS, indirect=True)
    def test_backend_worker_matrix(self, replay_path, tmp_path):
        n = 16
        spec = MatmulTraceSpec.uniform(n, "ho")
        m = machine()
        ref = oracle(m, spec, threads=2, sockets_used=2)
        for workers in placements(replay_path):
            legacy = MulticoreTraceSim(
                m, spec, threads=2, sockets_used=2, workers=workers,
            )
            rl = legacy.run()
            streamed = MulticoreTraceSim(
                m, spec, threads=2, sockets_used=2, workers=workers,
                trace_cache=str(tmp_path / "cache"),
            )
            ri = streamed.run()
            assert result_key(ri) == result_key(rl), workers
            assert_matches_oracle(legacy, ref)
            assert_matches_oracle(streamed, ref)

    def test_cyclic_schedule_and_more_threads(self, tmp_path):
        spec = MatmulTraceSpec.uniform(16, "mo")
        m = machine()
        ref = oracle(m, spec, threads=8, sockets_used=1, schedule="cyclic")
        for workers in (None, 4):
            streamed = MulticoreTraceSim(
                m, spec, threads=8, sockets_used=1, schedule="cyclic",
                workers=workers, trace_cache=str(tmp_path),
            )
            streamed.run()
            assert_matches_oracle(streamed, ref)

    def test_warm_cache_second_run_identical(self, tmp_path):
        """Run twice against the same cache dir: hit path == build path."""
        spec = MatmulTraceSpec.uniform(16, "rm")
        m = machine()
        ref = oracle(m, spec, threads=2, sockets_used=2)
        for _ in range(2):
            sim = MulticoreTraceSim(
                m, spec, threads=2, sockets_used=2, workers=2,
                trace_cache=str(tmp_path),
            )
            sim.run()
            assert_matches_oracle(sim, ref)


def entry_path(cache_dir, spec, rows, line_bytes):
    """Where a thread's shard lives in the trace cache at ``cache_dir``."""
    fp = trace_fingerprint("matmul", matmul_trace_params(spec, rows), line_bytes)
    return TraceIRCache(cache_dir).path_for(fp)


class TestWorkerBuiltShards:
    """Cache misses are built by the worker that replays the shard."""

    def test_published_file_matches_reference_builder(self, tmp_path, monkeypatch):
        spec = MatmulTraceSpec.uniform(16, "ho")
        m = machine()

        def no_writer_in_parent(*args, **kwargs):
            raise AssertionError("the parent must not build trace IR")

        # Spawned workers import a fresh module; only the parent is patched.
        monkeypatch.setattr(ir_mod.TraceIRWriter, "__init__", no_writer_in_parent)
        sim = MulticoreTraceSim(
            m, spec, threads=2, sockets_used=2, workers=2,
            trace_cache=str(tmp_path / "workers"),
        )
        sim.run()
        monkeypatch.undo()
        line_bytes = m.l1.line_bytes
        for rows in sim._thread_rows(None):
            params = matmul_trace_params(spec, rows)
            fp = trace_fingerprint("matmul", params, line_bytes)
            ref = write_trace_ir(
                tmp_path / "reference.ir", naive_matmul_trace(spec, rows=rows),
                line_bytes,
                meta={"kind": "matmul", "params": params, "fingerprint": fp},
            )
            built = entry_path(tmp_path / "workers", spec, rows, line_bytes)
            assert built.name == f"{fp}.ir"
            assert built.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("replay_path", REPLAY_PATHS, indirect=True)
    def test_cold_warm_serial_agree(self, replay_path, tmp_path):
        spec = MatmulTraceSpec.uniform(16, "ho")
        m = machine()
        # 3 rows over 8 threads: the 5 empty-row threads share one
        # fingerprint, spread over every worker.
        rows = [5, 6, 7]
        ref = oracle(m, spec, threads=8, sockets_used=2, runs=(rows,))
        for workers in placements(replay_path):
            cache = tmp_path / f"w{workers}"
            published = None
            for phase in ("cold", "warm"):
                sim = MulticoreTraceSim(
                    m, spec, threads=8, sockets_used=2, workers=workers,
                    trace_cache=str(cache),
                )
                sim.run(rows=rows)
                assert_matches_oracle(sim, ref)
                files = {p: p.read_bytes() for p in cache.rglob("*.ir")}
                assert published in (None, files), workers
                published = files
            assert len(published) == 4  # 3 rows + the shared empty shard
            assert not list(cache.rglob(".*.tmp"))

    def test_two_builds_in_one_worker_both_publish(self, tmp_path):
        spec = MatmulTraceSpec.uniform(16, "mo")
        m = machine()
        sim = MulticoreTraceSim(
            m, spec, threads=2, sockets_used=1, workers=1,
            trace_cache=str(tmp_path),
        )
        sim.run()
        for rows in sim._thread_rows(None):
            with TraceIRReader(entry_path(tmp_path, spec, rows, m.l1.line_bytes)) as r:
                r.verify()
                assert r.n_accesses == sum(
                    len(c) for c in naive_matmul_trace(spec, rows=rows)
                )

    def test_crash_mid_build_publishes_nothing(self, tmp_path):
        spec = MatmulTraceSpec.uniform(16, "ho")
        m = machine()
        ref = oracle(m, spec, threads=2, sockets_used=1)
        cache = tmp_path / "cache"
        # Threads alternate steps, so step 3 falls after two segments of
        # thread 0 and one of thread 1: both shards are mid-build.
        crash = FaultPlan.single("crash", worker=0, step=3)
        sim = MulticoreTraceSim(
            m, spec, threads=2, sockets_used=1, workers=1,
            trace_cache=str(cache), fault_plan=crash,
        )
        with pytest.raises(WorkerCrashError):
            sim.run()
        assert not list(cache.rglob("*.ir"))
        assert len(list(cache.rglob(".*.tmp"))) == 2  # the dead worker's
        TraceIRCache(cache)
        assert not list(cache.rglob(".*.tmp"))
        rebuilt = MulticoreTraceSim(
            m, spec, threads=2, sockets_used=1, workers=1,
            trace_cache=str(cache),
        )
        rebuilt.run()
        assert_matches_oracle(rebuilt, ref)
        assert len(list(cache.rglob("*.ir"))) == 2
        degraded = MulticoreTraceSim(
            m, spec, threads=2, sockets_used=1, workers=1,
            trace_cache=str(tmp_path / "fresh"), fault_plan=crash,
            on_failure="serial",
        )
        with pytest.warns(DegradedRunWarning, match="MulticoreTraceSim"):
            degraded.run()
        assert_matches_oracle(degraded, ref)

    @pytest.mark.parametrize("on_failure", ["raise", "serial"])
    def test_unusable_cache_root_fails_in_a_worker(self, tmp_path, on_failure):
        # A cache root under a regular file cannot hold entries; the
        # build fails inside a worker, so on_failure applies to it.  The
        # in-process redo builds through the same cache, so it fails the
        # same way a run without workers does.
        blocker = tmp_path / "a-file"
        blocker.write_text("not a directory")
        spec = MatmulTraceSpec.uniform(16, "rm")
        m = machine()

        def sim(workers, on_failure="raise"):
            return MulticoreTraceSim(
                m, spec, threads=2, sockets_used=2, workers=workers,
                trace_cache=str(blocker / "cache"), on_failure=on_failure,
            )

        with pytest.raises(TraceError, match="cannot write trace IR"):
            sim(None).run()
        if on_failure == "raise":
            with pytest.raises(WorkerCrashError):
                sim(2).run()
        else:
            with pytest.warns(DegradedRunWarning, match="MulticoreTraceSim"):
                with pytest.raises(TraceError, match="cannot write trace IR"):
                    sim(2, on_failure).run()


class TestCachegrindIdentity:
    @pytest.mark.parametrize("scheme", ["rm", "mo", "ho"])
    def test_run_ir_matches_run(self, scheme, tmp_path):
        m = scaled_machine(CACHEGRIND_LIKE, 256)
        spec = MatmulTraceSpec.uniform(32, scheme)
        rows = [7, 8, 21]
        line_bytes = m.l1.line_bytes
        legacy = CachegrindSim(m).run(
            lower_chunks(naive_matmul_trace(spec, rows=rows), line_bytes)
        )
        params = [matmul_trace_params(spec, rows)]
        for build in (True, False):  # cold: teed into the cache; warm: mapped
            (shard,) = trace_shards("matmul", params, line_bytes, tmp_path)
            assert shard.build == build
            assert CachegrindSim(m).run(shard.segments()) == legacy

    def test_line_bytes_mismatch_rejected(self, tmp_path):
        m = scaled_machine(CACHEGRIND_LIKE, 256)
        params = matmul_trace_params(MatmulTraceSpec.uniform(16, "rm"), rows=[4])
        path = TraceIRCache(tmp_path).get_or_build(
            "matmul", params, m.l1.line_bytes * 2
        )
        shard = TraceShard("matmul", params, m.l1.line_bytes, str(path))
        with pytest.raises(TraceError, match="lowered at 128 B"):
            CachegrindSim(m).run(shard.segments())


class TestMrcIdentity:
    def test_trace_cache_matches_legacy(self, tmp_path):
        kwargs = dict(
            n=16, schemes=("rm", "ho"), u_values=(1.0, 4.0), sample_rows=2,
        )
        legacy = run_mrc_study(**kwargs)
        streamed = run_mrc_study(**kwargs, trace_cache=str(tmp_path))
        assert len(streamed) == len(legacy)
        for a, b in zip(streamed, legacy):
            assert a == b


def cachegrind(**kwargs):
    return run_cachegrind_study(n=32, n_rows=3, **kwargs)


def mrc(**kwargs):
    return run_mrc_study(
        n=16, schemes=("rm", "ho"), u_values=(1.0, 4.0), **kwargs
    )


#: Each study's small run (two schemes, 2-3 segments per trace) and the
#: module whose ``trace_shards`` it calls.
STUDIES = {
    "cachegrind": (cachegrind, cachegrind_study),
    "mrc": (mrc, mrc_study),
}


def metered(tmp_path, run):
    """``run()`` and the counters of the metrics session it ran in."""
    with obs.ObsSession(metrics=tmp_path / "metrics.json"):
        out = run()
        return out, obs.OBS.metrics.snapshot()["counters"]


def refuse(*args, **kwargs):
    raise AssertionError("this run must not touch this code")


def entries(cache):
    return {p: p.read_bytes() for p in cache.rglob("*.ir")}


@dataclass(frozen=True)
class CrashingShard(TraceShard):
    """A shard whose replay kills the pool worker after one segment; in
    the parent (a serial redo) it replays normally."""

    def segments(self):
        segments = super().segments()
        if mp.parent_process() is None:
            return segments
        return _exit_after_first(segments)


def _exit_after_first(segments):
    for i, segment in enumerate(segments):
        if i == 1:
            os._exit(3)
        yield segment


class TestStudyShards:
    """Both studies read every trace through one :class:`TraceShard`."""

    @pytest.mark.parametrize("workers", [None, 2])
    @pytest.mark.parametrize("study", sorted(STUDIES))
    def test_cold_warm_live_agree(self, study, workers, tmp_path):
        run, _ = STUDIES[study]
        cache = tmp_path / "cache"
        live, live_counters = metered(tmp_path, lambda: run(workers=workers))
        published = None
        for phase in ("cold", "warm"):
            out, counters = metered(
                tmp_path, lambda: run(workers=workers, trace_cache=str(cache))
            )
            assert out == live, phase
            assert counters == live_counters, phase
            assert published in (None, entries(cache)), phase
            published = entries(cache)
        assert len(published) == 2  # one entry per scheme
        assert not list(cache.rglob(".*.tmp"))

    @pytest.mark.parametrize("study", sorted(STUDIES))
    def test_cold_run_replays_while_building(self, study, tmp_path, monkeypatch):
        run, _ = STUDIES[study]
        live = run()
        monkeypatch.setattr(ir_mod, "decode_frame", refuse)
        assert run(trace_cache=str(tmp_path)) == live
        assert len(entries(tmp_path)) == 2

    @pytest.mark.parametrize("study", sorted(STUDIES))
    def test_warm_run_writes_nothing(self, study, tmp_path, monkeypatch):
        run, _ = STUDIES[study]
        live = run(trace_cache=str(tmp_path))
        monkeypatch.setattr(ir_mod.TraceIRWriter, "__init__", refuse)
        assert run(trace_cache=str(tmp_path)) == live

    def test_warm_mrc_decodes_each_segment_once(self, tmp_path, monkeypatch):
        mrc(trace_cache=str(tmp_path))
        segments = 0
        for path in entries(tmp_path):
            with TraceIRReader(path) as reader:
                segments += reader.n_segments
        calls = 0
        decode = ir_mod.decode_frame

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return decode(*args, **kwargs)

        monkeypatch.setattr(ir_mod, "decode_frame", counted)
        mrc(trace_cache=str(tmp_path))
        assert calls == segments

    @pytest.mark.parametrize("study", sorted(STUDIES))
    def test_crash_mid_build_publishes_nothing(self, study, tmp_path, monkeypatch):
        run, module = STUDIES[study]
        live = run()
        shards = module.trace_shards
        monkeypatch.setattr(module, "trace_shards", lambda *args: [
            CrashingShard(s.kind, s.params, s.line_bytes, s.path, s.build)
            for s in shards(*args)
        ])
        cache = tmp_path / "cache"
        with pytest.raises(WorkerCrashError):
            run(workers=2, trace_cache=str(cache))
        assert not entries(cache)
        # The first worker to die left its partial entry; the pool may
        # stop the other one before it opens its own.
        assert list(cache.rglob(".*.tmp"))
        with pytest.warns(DegradedRunWarning, match=f"run_{study}_study"):
            assert run(
                workers=2, trace_cache=str(cache), on_failure="serial"
            ) == live
        assert len(entries(cache)) == 2  # rebuilt by the serial redo
        monkeypatch.undo()
        assert run(workers=2, trace_cache=str(cache)) == live
        assert not list(cache.rglob(".*.tmp"))  # swept as the cache opened


class TestResidueFrames:
    """Worker->parent miss residue uses the same IR frame codec."""

    def test_roundtrip(self):
        lines = np.array([5, 5, 9, 2**40, 0], dtype=np.uint64)
        w = np.array([1, 0, 0, 1, 1], dtype=bool)
        t = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
        L, W, T = unpack_miss_stream(pack_miss_stream(lines, w, t))
        np.testing.assert_array_equal(L, lines)
        np.testing.assert_array_equal(W, w)
        np.testing.assert_array_equal(T, t)

    def test_corruption_detected(self):
        lines = np.arange(64, dtype=np.uint64)
        w = np.zeros(64, dtype=bool)
        t = np.ones(64, dtype=np.uint8)
        blob = bytearray(pack_miss_stream(lines, w, t))
        blob[-3] ^= 0x40  # flip a payload bit
        with pytest.raises(TraceError):
            unpack_miss_stream(bytes(blob))
