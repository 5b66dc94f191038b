"""Fault-plan semantics: deterministic, picklable, pure."""

import pickle

import pytest

from repro.robust import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    corrupt_blob,
    execute_fault,
)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meltdown")

    def test_negative_coordinates_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("crash", worker=-1)
        with pytest.raises(ValueError):
            FaultSpec("crash", step=-1)

    def test_all_kinds_constructible(self):
        for kind in FAULT_KINDS:
            assert FaultSpec(kind).kind == kind


class TestFaultPlan:
    def test_single(self):
        plan = FaultPlan.single("crash", worker=2, step=5)
        assert plan.fire(2, 5) is not None
        assert plan.fire(2, 4) is None
        assert plan.fire(1, 5) is None

    def test_fire_is_pure(self):
        plan = FaultPlan.single("transient", worker=0, step=0)
        # Repeated consultation never consumes the fault.
        assert plan.fire(0, 0) is plan.fire(0, 0)

    def test_random_is_deterministic(self):
        a = FaultPlan.random(seed=7, workers=4, steps=100, n_faults=5)
        b = FaultPlan.random(seed=7, workers=4, steps=100, n_faults=5)
        assert a == b
        assert len(a.specs) == 5
        c = FaultPlan.random(seed=8, workers=4, steps=100, n_faults=5)
        assert a != c  # different seed, different schedule

    def test_random_respects_bounds(self):
        plan = FaultPlan.random(seed=1, workers=3, steps=10, n_faults=20)
        for s in plan.specs:
            assert 0 <= s.worker < 3
            assert 0 <= s.step < 10
            assert s.kind in FAULT_KINDS

    def test_for_worker(self):
        plan = FaultPlan(
            specs=(
                FaultSpec("crash", worker=0),
                FaultSpec("hang", worker=1),
                FaultSpec("slow", worker=0, step=9),
            )
        )
        assert [s.kind for s in plan.for_worker(0)] == ["crash", "slow"]
        assert [s.kind for s in plan.for_worker(2)] == []

    def test_picklable(self):
        plan = FaultPlan.random(seed=3, workers=2, steps=5, n_faults=3)
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestExecution:
    def test_transient_raises_injected_fault(self):
        with pytest.raises(InjectedFault, match="worker 1, step 4"):
            execute_fault(FaultSpec("transient", worker=1, step=4))

    def test_injected_fault_is_not_a_repro_error(self):
        from repro.errors import ReproError

        assert not issubclass(InjectedFault, ReproError)

    def test_slow_returns(self):
        execute_fault(FaultSpec("slow", delay_s=0.0))  # just returns

    def test_corrupt_is_a_noop_for_execute(self):
        execute_fault(FaultSpec("corrupt"))  # tampering is the caller's job


class TestCorruptBlob:
    def test_changes_and_shortens(self):
        blob = bytes(range(64))
        bad = corrupt_blob(blob)
        assert bad != blob
        assert len(bad) < len(blob)

    def test_deterministic(self):
        blob = b"x" * 100
        assert corrupt_blob(blob) == corrupt_blob(blob)

    def test_empty_blob(self):
        assert corrupt_blob(b"") != b""
