"""Deterministic fault injection for the parallel engines.

A :class:`FaultPlan` is a picklable, seeded schedule of worker failures:
each :class:`FaultSpec` names a fault *kind*, the worker it strikes,
and the step within that worker's life at which it fires.  The plan
travels into pool worker processes as an ordinary pickled
argument, so the same plan injected twice produces the same failure at
the same point of the same worker — chaos tests are reproducible runs,
not dice rolls.

Fault kinds (:data:`FAULT_KINDS`):

``crash``
    The worker process hard-exits (``os._exit``) without cleanup — the
    moral equivalent of an OOM kill or a segfault.
``hang``
    The worker stops making progress (sleep loop) while staying alive;
    only a traffic watchdog can tell this apart from slow work.
``transient``
    The worker raises :class:`InjectedFault`; the parent surfaces it as
    :class:`~repro.errors.WorkerCrashError`, or degrades to the serial
    path where the caller asked for that.
``slow``
    The worker sleeps ``delay_s`` and then proceeds normally — exercises
    the watchdog's tolerance for slow-but-alive workers (per-step
    traffic must prevent a false hang verdict).
``corrupt``
    The worker's payload is tampered with in flight
    (:func:`corrupt_blob`); the consumer must detect and reject it.

``crash``, ``hang``, ``transient`` and ``slow`` are *executed* by the
worker via :func:`execute_fault`; ``corrupt`` is returned to the caller,
which applies it to the outgoing payload.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "InjectedFault",
    "execute_fault",
    "corrupt_blob",
]

#: Every kind a :class:`FaultSpec` may name.
FAULT_KINDS = ("crash", "hang", "transient", "slow", "corrupt")


class InjectedFault(RuntimeError):
    """The exception a ``transient`` fault raises inside a worker.

    Deliberately *not* a :class:`~repro.errors.ReproError`: an injected
    failure models an arbitrary foreign exception escaping worker code.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled failure.

    ``worker`` is the worker id; ``step`` counts that worker's units of
    work (chunks simulated, sample points evaluated).
    """

    kind: str
    worker: int = 0
    step: int = 0
    delay_s: float = 0.05

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; have {FAULT_KINDS}"
            )
        if self.worker < 0 or self.step < 0:
            raise ValueError("worker and step must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of :class:`FaultSpec` instances.

    Plans are frozen and picklable; :meth:`fire` is a pure function of
    ``(worker, step)``, so every process consulting the same plan
    reaches the same verdict.
    """

    specs: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))

    @classmethod
    def single(cls, kind: str, worker: int = 0, step: int = 0, **kwargs) -> "FaultPlan":
        """A plan with exactly one scheduled fault."""
        return cls(specs=(FaultSpec(kind, worker, step, **kwargs),))

    @classmethod
    def random(
        cls,
        seed: int,
        workers: int,
        steps: int,
        kinds: tuple[str, ...] = FAULT_KINDS,
        n_faults: int = 1,
    ) -> "FaultPlan":
        """A seeded random schedule: same seed, same plan, always.

        Uses :class:`random.Random` (not the global RNG), so drawing a
        plan never perturbs — and is never perturbed by — other
        randomness in the program.
        """
        import random as _random

        if workers < 1 or steps < 1 or n_faults < 0:
            raise ValueError("workers, steps must be >= 1 and n_faults >= 0")
        rng = _random.Random(seed)
        specs = tuple(
            FaultSpec(
                kind=rng.choice(list(kinds)),
                worker=rng.randrange(workers),
                step=rng.randrange(steps),
            )
            for _ in range(n_faults)
        )
        return cls(specs=specs)

    def for_worker(self, worker: int) -> tuple[FaultSpec, ...]:
        """Every fault scheduled against one worker, in plan order."""
        return tuple(s for s in self.specs if s.worker == worker)

    def fire(self, worker: int, step: int) -> FaultSpec | None:
        """The fault (if any) scheduled at this worker and step."""
        for s in self.specs:
            if s.worker == worker and s.step == step:
                return s
        return None


def execute_fault(spec: FaultSpec) -> None:
    """Perform an executable fault inside a worker process.

    ``corrupt`` is a no-op here — payload tampering is the caller's job,
    because only the caller holds the payload.
    """
    if spec.kind == "crash":
        # Bypass all cleanup: no atexit, no finally, no queue flush.
        os._exit(3)
    elif spec.kind == "hang":
        # Stay alive but make no progress.  Sleep in short slices so a
        # terminate() from the parent lands promptly.
        while True:  # pragma: no cover - exits only via terminate
            time.sleep(0.01)
    elif spec.kind == "transient":
        raise InjectedFault(
            f"injected transient fault (worker {spec.worker}, step {spec.step})"
        )
    elif spec.kind == "slow":
        time.sleep(spec.delay_s)


def corrupt_blob(blob: bytes) -> bytes:
    """Deterministically tamper with a serialized payload.

    Flips every bit of the middle byte and truncates the tail, so both
    "wrong contents" and "short read" detection paths are exercised.  An
    empty blob becomes a short garbage blob.
    """
    if not blob:
        return b"\xff"
    mid = len(blob) // 2
    flipped = bytes([blob[mid] ^ 0xFF])
    return blob[:mid] + flipped + blob[mid + 1 : max(mid + 1, len(blob) - 4)]
