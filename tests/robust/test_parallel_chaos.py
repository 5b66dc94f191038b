"""Chaos suite for the parallel trace-sim engine.

Every fault kind a worker can suffer must surface as the right typed
error (or be survived outright), the watchdog must catch hangs within
its budget, ``on_failure="serial"`` must degrade to a bit-identical
serial run, and no child process may outlive ``run_parallel`` on any
path — success, crash, or hang.
"""

import multiprocessing
import time

import numpy as np
import pytest

from repro.errors import WorkerCrashError, WorkerHangError
from repro.robust import DegradedRunWarning, FaultPlan
from repro.sim import (
    BACKENDS,
    CacheSpec,
    MachineSpec,
    MulticoreTraceSim,
    backend_available,
)
from repro.trace import MatmulTraceSpec

#: Every replay backend; hosts without a compiled one skip its leg.
BACKEND_PARAMS = [
    pytest.param(
        b,
        marks=pytest.mark.skipif(
            not backend_available(b), reason=f"{b} backend unavailable"
        ),
    )
    for b in BACKENDS
]


def machine():
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


def sim_with(spec_kwargs=None, **fault_kwargs):
    spec = MatmulTraceSpec.uniform(8, "rm")
    return MulticoreTraceSim(
        machine(), spec, 2, 1, workers=2, **fault_kwargs
    )


def assert_no_leaked_children():
    # active_children() reaps finished processes as a side effect; give
    # straggler teardown a beat before declaring a leak.
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return
        time.sleep(0.05)
    leaked = multiprocessing.active_children()
    assert not leaked, f"leaked child processes: {leaked}"


class TestTypedErrors:
    def test_crash_raises_worker_crash(self):
        sim = sim_with(fault_plan=FaultPlan.single("crash", worker=0, step=0))
        with pytest.raises(WorkerCrashError, match="worker"):
            sim.run()

    def test_transient_raises_worker_crash(self):
        # No retry harness here: a raising worker is a crashed worker.
        sim = sim_with(
            fault_plan=FaultPlan.single("transient", worker=1, step=0)
        )
        with pytest.raises(WorkerCrashError, match="worker"):
            sim.run()

    def test_corrupt_payload_detected(self):
        sim = sim_with(fault_plan=FaultPlan.single("corrupt", worker=0, step=0))
        with pytest.raises(WorkerCrashError, match="corrupt"):
            sim.run()

    def test_hang_detected_within_timeout(self):
        timeout = 1.5
        sim = sim_with(
            fault_plan=FaultPlan.single("hang", worker=0, step=0),
            hang_timeout_s=timeout,
        )
        t0 = time.monotonic()
        with pytest.raises(WorkerHangError, match="no progress"):
            sim.run()
        elapsed = time.monotonic() - t0
        assert elapsed >= timeout * 0.5  # the watchdog actually waited
        assert elapsed < timeout + 10.0  # ...but not unboundedly

    def test_hang_without_watchdog_would_not_crash_detect(self):
        # A hung worker stays alive, so only the watchdog can catch it;
        # this documents that the timeout parameter is what saves you.
        sim = sim_with(
            fault_plan=FaultPlan.single("hang", worker=0, step=0),
            hang_timeout_s=1.0,
        )
        with pytest.raises(WorkerHangError):
            sim.run()


class TestStartUpIsNotSilence:
    def test_short_timeout_bounds_steps_not_start_up(self):
        # A worker's spawn start-up takes far longer than 0.2 s; the
        # watchdog starts at its ready message, so only steps count.
        spec = MatmulTraceSpec.uniform(8, "rm")
        rs = MulticoreTraceSim(machine(), spec, 2, 1).run()
        rp = MulticoreTraceSim(
            machine(), spec, 2, 1, workers=2, hang_timeout_s=0.2
        ).run()
        assert result_key(rp) == result_key(rs)

    def test_hang_at_the_first_step_is_still_caught(self):
        sim = sim_with(
            fault_plan=FaultPlan.single("hang", worker=0, step=0),
            hang_timeout_s=0.5,
        )
        with pytest.raises(WorkerHangError, match="no progress"):
            sim.run()
        assert_no_leaked_children()


class TestSurvivableFaults:
    def test_slow_worker_is_not_a_hang(self):
        # A slow worker still sends a frame per chunk, and every frame
        # resets the watchdog; it must not false-positive, and the result
        # stays bit-identical.
        spec = MatmulTraceSpec.uniform(8, "mo")
        serial = MulticoreTraceSim(machine(), spec, 2, 1)
        rs = serial.run()
        par = MulticoreTraceSim(
            machine(), spec, 2, 1, workers=2,
            fault_plan=FaultPlan.single("slow", worker=0, step=1, delay_s=0.3),
            hang_timeout_s=5.0,
        )
        rp = par.run()
        assert result_key(rp) == result_key(rs)


class TestGracefulDegradation:
    @pytest.mark.parametrize("kind", ["crash", "transient", "corrupt"])
    def test_serial_fallback_is_bit_identical(self, kind):
        spec = MatmulTraceSpec.uniform(16, "ho")
        serial = MulticoreTraceSim(machine(), spec, 2, 1)
        rs = serial.run()
        degraded = MulticoreTraceSim(
            machine(), spec, 2, 1, workers=2,
            fault_plan=FaultPlan.single(kind, worker=0, step=0),
            on_failure="serial",
        )
        with pytest.warns(DegradedRunWarning, match="MulticoreTraceSim"):
            rd = degraded.run()
        assert result_key(rd) == result_key(rs)
        assert_same_contents(cache_contents(degraded), cache_contents(serial))

    @pytest.mark.parametrize("backend", BACKEND_PARAMS)
    def test_serial_fallback_under_every_backend(self, backend):
        # The restored pre-run state is whatever the backend's levels
        # hold: reference-loop sets under python, kernel stacks otherwise.
        spec = MatmulTraceSpec.uniform(16, "ho")
        serial = MulticoreTraceSim(machine(), spec, 2, 1, backend=backend)
        rs = serial.run()
        degraded = MulticoreTraceSim(
            machine(), spec, 2, 1, backend=backend, workers=2,
            fault_plan=FaultPlan.single("crash", worker=0, step=0),
            on_failure="serial",
        )
        with pytest.warns(DegradedRunWarning, match="MulticoreTraceSim"):
            rd = degraded.run()
        assert result_key(rd) == result_key(rs)
        assert_same_contents(cache_contents(degraded), cache_contents(serial))

    def test_hang_degrades_too(self):
        spec = MatmulTraceSpec.uniform(8, "mo")
        rs = MulticoreTraceSim(machine(), spec, 2, 1).run()
        degraded = MulticoreTraceSim(
            machine(), spec, 2, 1, workers=2,
            fault_plan=FaultPlan.single("hang", worker=0, step=0),
            hang_timeout_s=1.0, on_failure="serial",
        )
        with pytest.warns(DegradedRunWarning):
            rd = degraded.run()
        assert result_key(rd) == result_key(rs)

    def test_raise_mode_does_not_warn(self):
        sim = sim_with(fault_plan=FaultPlan.single("crash", worker=0, step=0))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedRunWarning)
            with pytest.raises(WorkerCrashError):
                sim.run()


class TestNoLeakedChildren:
    """The Manager-leak and error-teardown regression tests."""

    def test_success_path_leaves_no_children(self):
        spec = MatmulTraceSpec.uniform(8, "mo")
        MulticoreTraceSim(machine(), spec, 2, 1, workers=2).run()
        assert_no_leaked_children()

    def test_crash_path_leaves_no_children(self):
        sim = sim_with(fault_plan=FaultPlan.single("crash", worker=0, step=0))
        with pytest.raises(WorkerCrashError):
            sim.run()
        assert_no_leaked_children()

    def test_hang_path_terminates_the_hung_worker(self):
        # The hung worker would live forever; the error path must
        # terminate it, not just abandon it.
        sim = sim_with(
            fault_plan=FaultPlan.single("hang", worker=0, step=0),
            hang_timeout_s=1.0,
        )
        with pytest.raises(WorkerHangError):
            sim.run()
        assert_no_leaked_children()
