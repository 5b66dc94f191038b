"""Differential suite: the parallel pipelined engine vs the serial loop.

Every test compares full :class:`HierarchyResult` state — all counters of
all three levels including per-tag attribution, DRAM lines/writebacks and
the configured line size — plus the post-run cache contents, so "bit
identical" means the parallel engine is indistinguishable from serial
even to code that keeps simulating afterwards.
"""

import numpy as np
import pytest

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


def machine():
    # 2 sockets x 8 cores so the paper's 1s/2d/8s placements all fit.
    return MachineSpec(
        name="mini16",
        sockets=2,
        cores_per_socket=8,
        l1=CacheSpec("L1", 512, 64, 2),
        l2=CacheSpec("L2", 2048, 64, 4),
        l3=CacheSpec("L3", 16 * 1024, 64, 8),
    )


def stats_key(cs):
    return (
        cs.accesses, cs.write_accesses, cs.hits, cs.misses, cs.read_misses,
        cs.write_misses, cs.evictions, cs.writebacks, cs.prefetches,
        cs.tag_accesses.tolist(), cs.tag_read_misses.tolist(),
        cs.tag_write_misses.tolist(),
    )


def result_key(r):
    return (
        stats_key(r.l1), stats_key(r.l2), stats_key(r.l3),
        r.dram_lines, r.dram_writeback_lines, r.line_bytes,
    )


def cache_contents(sim):
    """Post-run cache state of every level of every socket."""
    out = []
    for s in sim.sockets:
        for core in s.cores:
            for level in (core.l1, core.l2):
                snap = level.state_snapshot()
                snap.pop("stats")
                out.append(snap)
        snap = s.l3.state_snapshot()
        snap.pop("stats")
        out.append(snap)
    return out


def assert_same_contents(a, b):
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert sa["kind"] == sb["kind"]
        if sa["kind"] == "fast":
            np.testing.assert_array_equal(sa["stack"], sb["stack"])
            np.testing.assert_array_equal(sa["dirty"], sb["dirty"])
        else:
            assert sa["sets"] == sb["sets"]
            assert sa["dirty"] == sb["dirty"]


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
        n = 16
        spec = MatmulTraceSpec.uniform(n, scheme)
        m = machine()
        serial = MulticoreTraceSim(m, spec, threads, sockets, schedule=schedule)
        rs = serial.run()
        for k in (1, 2, 4):
            par = MulticoreTraceSim(
                m, spec, threads, sockets, schedule=schedule, workers=k,
            )
            rp = par.run()
            assert result_key(rp) == result_key(rs), (scheme, tc, schedule, k)
            assert_same_contents(cache_contents(par), cache_contents(serial))

    @pytest.mark.parametrize("scheme,tc", [("rm", "2d"), ("ho", "8s")])
    def test_exact_engine_spot_checks(self, scheme, tc):
        # The python backend: the reference loop on every set-assoc level.
        threads, sockets = PLACEMENTS[tc]
        spec = MatmulTraceSpec.uniform(16, scheme)
        m = machine()
        rs = MulticoreTraceSim(m, spec, threads, sockets, backend="python").run()
        par = MulticoreTraceSim(
            m, spec, threads, sockets, backend="python", workers=2
        )
        assert result_key(par.run()) == result_key(rs)

    def test_sampled_rows_and_carried_state(self):
        # The calibration pattern: two runs on one sim object, the second
        # carrying the first's cache state into the workers and back.
        spec = MatmulTraceSpec.uniform(16, "mo")
        m = machine()
        serial = MulticoreTraceSim(m, spec, 2, 1)
        par = MulticoreTraceSim(m, spec, 2, 1, workers=2)
        for sim in (serial, par):
            sim.run(rows=[7])
            sim.run(rows=[8, 9, 10])
        assert result_key(par.result()) == result_key(serial.result())
        assert_same_contents(cache_contents(par), cache_contents(serial))

    def test_more_threads_than_rows_empty_generators(self):
        # Threads beyond the row count get empty shards: their workers
        # must still deliver a DONE snapshot so the merge stays aligned.
        spec = MatmulTraceSpec.uniform(16, "ho")
        m = machine()
        rs = MulticoreTraceSim(m, spec, 8, 1).run(rows=[5, 6])
        rp = MulticoreTraceSim(m, spec, 8, 1, workers=3).run(
            rows=[5, 6]
        )
        assert result_key(rp) == result_key(rs)

    def test_empty_miss_stream_chunks(self):
        # An L2 big enough to absorb the whole working set produces empty
        # per-chunk miss streams; the shared phase must replay nothing and
        # the L3 must end cold, exactly as in serial.
        m = MachineSpec(
            name="fat-l2",
            sockets=1,
            cores_per_socket=2,
            l1=CacheSpec("L1", 512, 64, 2),
            l2=CacheSpec("L2", 64 * 1024, 64, 8),
            l3=CacheSpec("L3", 128 * 1024, 64, 8),
        )
        spec = MatmulTraceSpec.uniform(8, "mo")
        serial = MulticoreTraceSim(m, spec, 2, 1)
        par = MulticoreTraceSim(m, spec, 2, 1, workers=2)
        rs, rp = serial.run(), par.run()
        assert rs.l3.accesses == rp.l3.accesses
        assert result_key(rp) == result_key(rs)
        # Second pass is all L1/L2 hits -> every miss chunk is empty.
        rs2, rp2 = serial.run(), par.run()
        assert rs2.l3.accesses == rs.l3.accesses
        assert result_key(rp2) == result_key(rs2)


class TestBackendBitIdentity:
    """The compiled kernel backend through the full parallel stack.

    Serial python is the anchor; the ``"c"`` backend must match it both
    serially and through workers=2 — the latter also proves the backend
    name survives pickling into spawn workers (each worker re-resolves
    the plain string and loads its own copy of the kernel).
    """

    @pytest.mark.parametrize("scheme,tc", [("mo", "2d"), ("ho", "8s")])
    @pytest.mark.parametrize("backend", COMPILED_BACKEND_PARAMS)
    def test_compiled_backend_matches_python(self, backend, scheme, tc):
        threads, sockets = PLACEMENTS[tc]
        spec = MatmulTraceSpec.uniform(16, scheme)
        m = machine()
        anchor = MulticoreTraceSim(
            m, spec, threads, sockets, backend="python"
        ).run()
        serial = MulticoreTraceSim(m, spec, threads, sockets, backend=backend)
        rs = serial.run()
        assert result_key(rs) == result_key(anchor), (scheme, tc)
        par = MulticoreTraceSim(
            m, spec, threads, sockets, backend=backend, workers=2,
        )
        rp = par.run()
        assert result_key(rp) == result_key(anchor), (scheme, tc)
        assert_same_contents(cache_contents(par), cache_contents(serial))


class TestSmoke:
    def test_workers2_bit_identity_smoke(self):
        """CI smoke: one spawn-pickled workers=2 run against serial."""
        spec = MatmulTraceSpec.uniform(16, "mo")
        m = machine()
        rs = MulticoreTraceSim(m, spec, 4, 2).run()
        rp = MulticoreTraceSim(m, spec, 4, 2, workers=2).run()
        assert result_key(rp) == result_key(rs)


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
