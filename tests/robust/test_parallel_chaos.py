"""Chaos suite for the parallel trace-sim engine.

Every fault kind a worker can suffer must surface as the right typed
error (or be survived outright), the watchdog must catch hangs within
its budget, ``on_failure="serial"`` must degrade to an in-process pass
identical to the serial oracle (:mod:`tests.sim.multicore_oracle`), and
no child process may outlive ``run_parallel`` on any path — success,
crash, or hang.
"""

import multiprocessing
import time

import pytest

from repro.errors import WorkerCrashError, WorkerHangError
from repro.robust import DegradedRunWarning, FaultPlan
from repro.sim import MulticoreTraceSim
from repro.trace import MatmulTraceSpec, TraceIRCache, matmul_trace_params

from tests.sim.multicore_oracle import (
    assert_matches_oracle,
    machine,
    oracle,
    result_key,
)

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
        degraded = MulticoreTraceSim(
            machine(), spec, 2, 1, workers=2,
            fault_plan=FaultPlan.single(kind, worker=0, step=0),
            on_failure="serial",
        )
        with pytest.warns(DegradedRunWarning, match="MulticoreTraceSim"):
            degraded.run()
        assert_matches_oracle(degraded, oracle(machine(), spec, 2, 1))

    def test_serial_fallback_restores_carried_state(self):
        # The restored pre-run state is whatever this host's levels hold:
        # kernel stacks with the C library, reference-loop sets without
        # it.  A first, clean run gives the degraded one carried state.
        spec = MatmulTraceSpec.uniform(16, "ho")
        degraded = MulticoreTraceSim(
            machine(), spec, 2, 1, workers=2, on_failure="serial",
        )
        degraded.run(rows=[3])
        degraded.fault_plan = FaultPlan.single("crash", worker=0, step=0)
        with pytest.warns(DegradedRunWarning, match="MulticoreTraceSim"):
            degraded.run()
        ref = oracle(machine(), spec, 2, 1, runs=([3], None))
        assert_matches_oracle(degraded, ref)

    def test_hang_degrades_too(self):
        spec = MatmulTraceSpec.uniform(8, "mo")
        degraded = MulticoreTraceSim(
            machine(), spec, 2, 1, workers=2,
            fault_plan=FaultPlan.single("hang", worker=0, step=0),
            hang_timeout_s=1.0, on_failure="serial",
        )
        with pytest.warns(DegradedRunWarning):
            degraded.run()
        assert_matches_oracle(degraded, oracle(machine(), spec, 2, 1))

    def test_cold_cached_redo_builds_every_entry(self, tmp_path):
        # Worker 0 dies mid-build; the in-process redo sweeps its partial
        # entry and builds every shard the cache lacks, so the next run
        # maps them all.
        spec = MatmulTraceSpec.uniform(16, "ho")
        rows = [5, 6, 7]
        ref = oracle(machine(), spec, 8, 2, runs=(rows,))
        cache = tmp_path / "cache"

        def sim(**kwargs):
            return MulticoreTraceSim(
                machine(), spec, 8, 2, workers=2, trace_cache=str(cache),
                **kwargs,
            )

        degraded = sim(
            fault_plan=FaultPlan.single("crash", worker=0, step=1),
            on_failure="serial",
        )
        with pytest.warns(DegradedRunWarning, match="MulticoreTraceSim"):
            degraded.run(rows=rows)
        assert_matches_oracle(degraded, ref)
        built = {p: p.read_bytes() for p in cache.rglob("*.ir")}
        assert len(built) == 4  # 3 rows + the shared empty shard
        assert not list(cache.rglob(".*.tmp"))
        params = [matmul_trace_params(spec, r) for r in degraded._thread_rows(rows)]
        shards = TraceIRCache(cache).shards("matmul", params, machine().l1.line_bytes)
        assert all(s.path is not None and not s.build for s in shards)
        warm = sim()
        warm.run(rows=rows)
        assert_matches_oracle(warm, ref)
        assert {p: p.read_bytes() for p in cache.rglob("*.ir")} == built

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
