"""Differential suite: every ``MulticoreTraceSim`` run vs the serial oracle.

Every run takes :func:`repro.sim.parallel.run_parallel` — in-process with
``workers=None``, on the process pool otherwise — and every test compares
it with :mod:`tests.sim.multicore_oracle`, the deleted serial loop (live
chunks, round-robin chunk by chunk into the L3s): full
:class:`HierarchyResult` state — all counters of all three levels
including per-tag attribution, DRAM lines/writebacks and the configured
line size — plus the post-run cache contents, so "identical" means the
run is indistinguishable from the oracle even to code that keeps
simulating afterwards.
"""

import numpy as np
import pytest

import repro.trace.ir as ir_mod
from repro.errors import SimulationError, WorkerCrashError
from repro.robust import FaultPlan
from repro.sim import (
    backend_available,
    CacheSpec,
    MachineSpec,
    MulticoreTraceSim,
    pack_miss_stream,
    unpack_miss_stream,
)
from repro.trace import MatmulTraceSpec

from tests.sim.multicore_oracle import (
    assert_matches_oracle,
    machine,
    oracle,
    result_key,
)

#: Every way a run can be placed: in-process, then 1, 2 and 4 workers.
WORKERS = (None, 1, 2, 4)


#: The compiled backend's param; hosts without it skip the leg.
COMPILED_BACKEND_PARAMS = [
    pytest.param(
        "c",
        marks=pytest.mark.skipif(
            not backend_available("c"), reason="c backend unavailable"
        ),
    )
]

#: The acceptance matrix: schemes x placements x schedules.
PLACEMENTS = {"1s": (1, 1), "2d": (2, 2), "8s": (8, 1)}
MATRIX = [
    (scheme, tc, schedule)
    for scheme in ("rm", "mo", "ho")
    for tc in ("1s", "2d", "8s")
    for schedule in ("static", "cyclic")
]


class TestBitIdentity:
    @pytest.mark.parametrize("scheme,tc,schedule", MATRIX)
    def test_matrix_fast_engine(self, scheme, tc, schedule):
        # The default backend: the fastest kernel this host has.
        threads, sockets = PLACEMENTS[tc]
        spec = MatmulTraceSpec.uniform(16, scheme)
        m = machine()
        ref = oracle(m, spec, threads, sockets, schedule=schedule)
        for k in WORKERS:
            sim = MulticoreTraceSim(
                m, spec, threads, sockets, schedule=schedule, workers=k,
            )
            sim.run()
            assert_matches_oracle(sim, ref)

    @pytest.mark.parametrize("scheme,tc", [("rm", "2d"), ("ho", "8s")])
    def test_exact_engine_spot_checks(self, scheme, tc):
        # The python backend: the reference loop on every set-assoc level.
        threads, sockets = PLACEMENTS[tc]
        spec = MatmulTraceSpec.uniform(16, scheme)
        m = machine()
        ref = oracle(m, spec, threads, sockets, backend="python")
        for k in (None, 2):
            sim = MulticoreTraceSim(
                m, spec, threads, sockets, backend="python", workers=k
            )
            sim.run()
            assert_matches_oracle(sim, ref)

    def test_sampled_rows_and_carried_state(self, tmp_path):
        # The calibration pattern: runs on one sim object, each carrying
        # the previous one's cache state (into the workers and back); the
        # third run maps the first one's shards when cached.
        spec = MatmulTraceSpec.uniform(16, "mo")
        m = machine()
        runs = ([7], [8, 9, 10], [7])
        ref = oracle(m, spec, 2, 1, runs=runs)
        for k in WORKERS:
            for cache in (None, str(tmp_path / f"w{k}")):
                sim = MulticoreTraceSim(
                    m, spec, 2, 1, workers=k, trace_cache=cache
                )
                for rows in runs:
                    sim.run(rows=rows)
                assert_matches_oracle(sim, ref)

    def test_more_threads_than_rows_empty_generators(self):
        # Threads beyond the row count get empty shards: their streams
        # must still deliver a DONE snapshot so the merge stays aligned.
        spec = MatmulTraceSpec.uniform(16, "ho")
        m = machine()
        ref = oracle(m, spec, 8, 1, runs=([5, 6],))
        for k in (None, 3):
            sim = MulticoreTraceSim(m, spec, 8, 1, workers=k)
            sim.run(rows=[5, 6])
            assert_matches_oracle(sim, ref)

    def test_empty_miss_stream_chunks(self):
        # An L2 big enough to absorb the whole working set produces empty
        # per-chunk miss streams; the shared phase must replay nothing and
        # the L3 must end cold, exactly as in the oracle.
        m = MachineSpec(
            name="fat-l2",
            sockets=1,
            cores_per_socket=2,
            l1=CacheSpec("L1", 512, 64, 2),
            l2=CacheSpec("L2", 64 * 1024, 64, 8),
            l3=CacheSpec("L3", 128 * 1024, 64, 8),
        )
        spec = MatmulTraceSpec.uniform(8, "mo")
        once = oracle(m, spec, 2, 1)
        l3_accesses = once.result().l3.accesses
        # Second pass is all L1/L2 hits -> every miss chunk is empty.
        twice = oracle(m, spec, 2, 1, runs=(None, None))
        assert twice.result().l3.accesses == l3_accesses
        for k in (None, 2):
            sim = MulticoreTraceSim(m, spec, 2, 1, workers=k)
            sim.run()
            assert_matches_oracle(sim, once)
            sim.run()
            assert_matches_oracle(sim, twice)


class TestSerialTraceCache:
    """``trace_cache`` means the same without workers as with them."""

    def test_first_run_builds_second_maps(self, tmp_path, monkeypatch):
        spec = MatmulTraceSpec.uniform(16, "ho")
        m = machine()
        # 3 rows over 8 threads: the 5 empty-row threads share one shard.
        rows = [5, 6, 7]
        ref = oracle(m, spec, 8, 2, runs=(rows,))
        live = MulticoreTraceSim(m, spec, 8, 2)
        live.run(rows=rows)
        assert_matches_oracle(live, ref)
        generated = []
        build = ir_mod.TRACE_KINDS["matmul"]

        def spy(params):
            generated.append(params["rows"])
            return build(params)

        monkeypatch.setitem(ir_mod.TRACE_KINDS, "matmul", spy)
        cache = tmp_path / "cache"
        published = None
        for phase, traces in (("cold", 8), ("warm", 0)):
            generated.clear()
            sim = MulticoreTraceSim(m, spec, 8, 2, trace_cache=str(cache))
            sim.run(rows=rows)
            assert len(generated) == traces, phase
            assert result_key(sim.result()) == result_key(live.result())
            assert_matches_oracle(sim, ref)
            files = {p: p.read_bytes() for p in cache.rglob("*.ir")}
            assert len(files) == 4, phase  # 3 rows + the shared empty shard
            assert published in (None, files), phase
            published = files
        assert not list(cache.rglob(".*.tmp"))


class TestBackendBitIdentity:
    """The compiled kernel backend through the full stack.

    The python-backend oracle is the anchor; the ``"c"`` backend must
    match it in-process and through workers=2 — the latter also proves
    the backend name survives pickling into the workers (each worker
    re-resolves the plain string and loads its own copy of the kernel).
    """

    @pytest.mark.parametrize("scheme,tc", [("mo", "2d"), ("ho", "8s")])
    @pytest.mark.parametrize("backend", COMPILED_BACKEND_PARAMS)
    def test_compiled_backend_matches_python(self, backend, scheme, tc):
        threads, sockets = PLACEMENTS[tc]
        spec = MatmulTraceSpec.uniform(16, scheme)
        m = machine()
        anchor = oracle(m, spec, threads, sockets, backend="python").result()
        ref = oracle(m, spec, threads, sockets, backend=backend)
        assert result_key(ref.result()) == result_key(anchor), (scheme, tc)
        for k in (None, 2):
            sim = MulticoreTraceSim(
                m, spec, threads, sockets, backend=backend, workers=k,
            )
            sim.run()
            assert_matches_oracle(sim, ref)


class TestSmoke:
    def test_workers2_bit_identity_smoke(self):
        """CI smoke: one workers=2 run against the oracle."""
        spec = MatmulTraceSpec.uniform(16, "mo")
        m = machine()
        sim = MulticoreTraceSim(m, spec, 4, 2, workers=2)
        sim.run()
        assert_matches_oracle(sim, oracle(m, spec, 4, 2))


class TestFailureModes:
    def test_invalid_workers(self):
        with pytest.raises(SimulationError):
            MulticoreTraceSim(machine(), MatmulTraceSpec.uniform(8, "rm"),
                              workers=0)

    @pytest.mark.parametrize("kind", ["crash", "transient"])
    def test_worker_crash_raises_not_hangs(self, kind):
        sim = MulticoreTraceSim(
            machine(), MatmulTraceSpec.uniform(8, "rm"), 2, 1, workers=2,
            fault_plan=FaultPlan.single(kind, worker=0, step=0),
        )
        with pytest.raises(WorkerCrashError, match="worker"):
            sim.run()


class TestMissStreamSerialization:
    def test_round_trip(self):
        lines = np.array([3, 5, 2**40], dtype=np.uint64)
        w = np.array([True, False, True])
        tags = np.array([0, 1, 2], dtype=np.uint8)
        got = unpack_miss_stream(pack_miss_stream(lines, w, tags))
        for a, b in zip(got, (lines, w, tags)):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype

    def test_empty_round_trip(self):
        empty = (
            np.empty(0, dtype=np.uint64),
            np.empty(0, dtype=bool),
            np.empty(0, dtype=np.uint8),
        )
        got = unpack_miss_stream(pack_miss_stream(*empty))
        for a, b in zip(got, empty):
            assert len(a) == 0 and a.dtype == b.dtype
