"""Chaos suite for the one supervised spawn pool (``repro.robust.StreamPool``)
and the studies' fan-out on it (``repro.robust.fan_out``).

Streams come in the two shapes the pool serves: one item per key (the
studies) and several self-verifying byte frames per key (the parallel
trace-sim engine).  Under any fault plan a run must either equal the
in-process loop's output exactly or raise the typed error, and no child
process may outlive the pool.
"""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.errors import TraceError, WorkerCrashError, WorkerHangError
from repro.robust import DegradedRunWarning, FaultPlan, StreamPool, fan_out
from repro.trace.ir import decode_frame, encode_frame

#: Five keys on two workers: worker 0 owns keys 0, 2, 4; worker 1 owns 1, 3.
KEYS = [0, 1, 2, 3, 4]

#: Generous for one worker step.  The watchdog starts at each worker's
#: ready message, so spawn start-up does not count against it.
HANG_S = 2.0


def one_item(key):
    """The study shape: one result object per key."""
    yield {"key": key, "square": key * key}


def frames(key):
    """The trace-sim shape: ``(2 key) mod 5`` frames, so key 0 has none."""
    for j in range(2 * key % 5):
        lines = np.arange(100 * key, 100 * key + 3 * (j + 1), dtype=np.uint64)
        yield encode_frame(lines, lines % 2 == 0, np.full(len(lines), j, np.uint8))


SHAPES = {"one-item": one_item, "frames": frames}


def consume(task, workers=2, plan=None):
    """Every ``(key, item)``, rejecting a frame that fails its digest."""
    out = []
    with StreamPool(
        task, KEYS, workers, fault_plan=plan, hang_timeout_s=HANG_S
    ) as pool:
        for key, item in pool:
            if isinstance(item, bytes):
                try:
                    decode_frame(item)
                except TraceError as exc:
                    raise WorkerCrashError(f"corrupt frame (key {key})") from exc
            out.append((key, item))
    return out


def outcome(task, plan):
    """``"same"`` when the pool run equals the in-process loop, else the
    typed error it raised."""
    expected = consume(task, workers=None)
    try:
        got = consume(task, plan=plan)
    except (WorkerCrashError, WorkerHangError) as exc:
        return type(exc)
    assert got == expected
    return "same"


def assert_no_children():
    # active_children() reaps finished processes as a side effect.
    assert not multiprocessing.active_children()


def refuse_key_zero_else_sleep(key):
    """Key 0 raises in a pool worker; every other key takes 4 s."""
    if key == 0:
        raise RuntimeError("pool worker refused 0")
    time.sleep(4.0)
    return key


def kill_key_one_else_sleep(key):
    """Key 1 kills its own worker; every other key takes 4 s."""
    if key == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(4.0)
    return key


def square_in_parent_only(key):
    """``key`` squared; raises when run in a pool process."""
    if multiprocessing.parent_process() is not None:
        raise RuntimeError(f"pool worker refused {key}")
    return key * key


def sleepy_after_key_zero(key):
    """Key 0 streams at once; every other key sleeps before its item."""
    if key != 0:
        time.sleep(30.0)
    yield from range(3)


class RecordingKey:
    """A key that records, each time it is pickled, how many child
    processes the pickling process had started."""

    pickled = []

    def __init__(self, value):
        self.value = value

    def __reduce__(self):
        RecordingKey.pickled.append(len(multiprocessing.active_children()))
        return RecordingKey, (self.value,)


def square_of_value(key):
    yield key.value * key.value


def length_of(key):
    yield len(key)


class ExitOnUnpickle:
    """Unpickles as ``os._exit(3)``: passed as the fault plan, it kills a
    pool worker while it unpickles its start-up arguments, before it
    has taken its keys."""

    def __reduce__(self):
        return os._exit, (3,)


class TestStartUp:
    def test_keys_ship_after_every_worker_started(self):
        del RecordingKey.pickled[:]
        keys = [RecordingKey(k) for k in range(5)]
        with StreamPool(square_of_value, keys, 2) as pool:
            out = [(key.value, item) for key, item in pool]
        assert out == [(k, k * k) for k in range(5)]
        # Worker 0's three keys and worker 1's two, each pickled once,
        # none before both workers had started.
        assert RecordingKey.pickled == [2] * 5
        assert_no_children()

    @pytest.mark.parametrize("key_bytes", [16, 1 << 20])
    def test_worker_dead_before_its_keys_is_a_crash(self, key_bytes):
        # Small keys sit in the pipe and the dead worker is found by the
        # liveness poll; keys larger than a pipe's buffer fail the send.
        keys = [b"a" * key_bytes, b"b" * key_bytes]
        t0 = time.monotonic()
        with pytest.raises(WorkerCrashError, match="exit code 3"):
            with StreamPool(
                length_of, keys, 2, fault_plan=ExitOnUnpickle()
            ) as pool:
                list(pool)
        assert time.monotonic() - t0 < 10.0
        assert_no_children()


class TestInProcess:
    def test_round_robin_order(self):
        out = consume(frames, workers=None)
        # Keys 0-4 have 0, 2, 4, 1 and 3 frames.  Round 1 takes every
        # key's first frame in key order; later rounds skip ended keys.
        assert [k for k, _ in out] == [1, 2, 3, 4, 1, 2, 4, 2, 4, 2]

    def test_pool_equals_in_process(self):
        for task in SHAPES.values():
            assert consume(task) == consume(task, workers=None)
        assert_no_children()


class TestEveryFaultKind:
    """One fault at worker 0's second step, in both stream shapes."""

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("kind, expected", [
        ("crash", WorkerCrashError),
        ("transient", WorkerCrashError),
        ("hang", WorkerHangError),
        ("slow", "same"),
        ("corrupt", None),
    ])
    def test_fault_kind(self, kind, expected, shape):
        if kind == "corrupt":
            # Only bytes items are tampered with; the frame consumer
            # rejects them, a result object passes through untouched.
            expected = WorkerCrashError if shape == "frames" else "same"
        plan = FaultPlan.single(kind, worker=0, step=1, delay_s=0.3)
        assert outcome(SHAPES[shape], plan) == expected
        assert_no_children()

    @pytest.mark.parametrize("seed", range(24))
    def test_random_plans(self, seed):
        shape = sorted(SHAPES)[seed % 2]
        plan = FaultPlan.random(seed, workers=2, steps=8, n_faults=1 + seed % 3)
        assert outcome(SHAPES[shape], plan) in (
            "same", WorkerCrashError, WorkerHangError
        )
        assert_no_children()


class TestTeardown:
    def test_consumer_break_stops_the_work(self):
        t0 = time.monotonic()
        with StreamPool(sleepy_after_key_zero, [0, 1, 2, 3], 2) as pool:
            for key, item in pool:
                assert (key, item) == (0, 0)
                break
        assert time.monotonic() - t0 < 10.0  # not the 30 s sleeps
        assert_no_children()

    def test_consumer_error_joins_workers_first(self):
        with pytest.raises(KeyError):
            with StreamPool(sleepy_after_key_zero, [0, 1, 2, 3], 2) as pool:
                for _ in pool:
                    raise KeyError("consumer")
        assert_no_children()


class TestPromptFailure:
    def test_raising_task_fails_fast_and_typed(self):
        t0 = time.monotonic()
        with pytest.raises(WorkerCrashError, match="pool worker refused 0"):
            with fan_out(
                "demo", refuse_key_zero_else_sleep, [0, 1, 2, 3], 2, "raise"
            ) as results:
                list(results)
        assert time.monotonic() - t0 < 2.0
        assert_no_children()

    def test_killed_worker_is_a_crash(self):
        t0 = time.monotonic()
        with pytest.raises(WorkerCrashError, match="exit code -9"):
            with fan_out(
                "demo", kill_key_one_else_sleep, [0, 1, 2, 3], 2, "raise"
            ) as results:
                list(results)
        assert time.monotonic() - t0 < 4.0  # not after the sleeping keys
        assert_no_children()


class TestFanOut:
    def test_pool_failure_raises(self):
        with pytest.raises(WorkerCrashError, match="pool worker refused"):
            with fan_out(
                "demo", square_in_parent_only, [3, 1], 2, "raise"
            ) as results:
                list(results)

    def test_pool_failure_degrades_to_serial_result(self):
        with pytest.warns(DegradedRunWarning, match="pool worker refused"):
            with fan_out(
                "demo", square_in_parent_only, [3, 1], 2, "serial"
            ) as results:
                out = list(results)
        assert out == [(3, 9), (1, 1)]
        assert_no_children()
