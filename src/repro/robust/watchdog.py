"""Wall-clock hang detection for parallel merge loops.

A :class:`Watchdog` is a deadline that worker traffic keeps pushing
forward: every message received calls :meth:`beat`, and the consumer
polls :meth:`expired` while waiting.  When the deadline passes with no
traffic, the caller terminates its workers and raises
:class:`~repro.errors.WorkerHangError`.  A :class:`~repro.robust.StreamPool`
worker ships one message per step from its main loop, and its deadline
starts at its ready message, so ``hang_timeout_s`` must exceed the
worst-case cost of one step, not of a spawn start-up; the
advisor's evaluation pool ships data only at batch end, so its workers
send heartbeats between evaluated points.
"""

from __future__ import annotations

import time

from repro.errors import SimulationError, WorkerHangError

__all__ = ["Deadline", "Watchdog"]


class Deadline:
    """A fixed wall-clock budget, started at construction.

    The complement of :class:`Watchdog`: a watchdog's deadline moves
    with worker traffic, a :class:`Deadline` never does — it bounds the
    *total* time of an operation regardless of progress.  Used by the
    advisor service for per-request budgets (a request that keeps making
    slow progress must still answer by its deadline) and usable anywhere
    a "finish by T" bound composes with retry loops.

    ``budget_s=None`` is unbounded: :meth:`remaining` returns ``None``
    and :meth:`expired` is always ``False``.  ``clock`` is injectable
    for exact-boundary tests, like :class:`Watchdog`'s.
    """

    def __init__(self, budget_s: float | None, clock=time.monotonic):
        if budget_s is not None and budget_s <= 0:
            raise SimulationError(
                f"budget_s must be positive, got {budget_s}"
            )
        self.budget_s = budget_s
        self._clock = clock
        self._t0 = clock()

    @property
    def elapsed_s(self) -> float:
        """Seconds since the deadline started."""
        return self._clock() - self._t0

    def remaining(self) -> float | None:
        """Seconds left in the budget (never negative); ``None`` if unbounded."""
        if self.budget_s is None:
            return None
        return max(0.0, self.budget_s - self.elapsed_s)

    def expired(self) -> bool:
        return self.budget_s is not None and self.elapsed_s >= self.budget_s


class Watchdog:
    """Deadline tracker; ``hang_timeout_s=None`` disables it entirely.

    ``clock`` is any zero-argument monotonic-seconds callable (default
    :func:`time.monotonic`).  Tests inject a fake clock so time-bound
    assertions are exact instead of wall-clock races on loaded CI.
    """

    def __init__(self, hang_timeout_s: float | None, clock=time.monotonic):
        if hang_timeout_s is not None and hang_timeout_s <= 0:
            raise SimulationError(
                f"hang_timeout_s must be positive, got {hang_timeout_s}"
            )
        self.hang_timeout_s = hang_timeout_s
        self._clock = clock
        self._last_beat = clock()

    def beat(self) -> None:
        """Record evidence of worker progress; resets the deadline."""
        self._last_beat = self._clock()

    @property
    def silence_s(self) -> float:
        """Seconds since the last recorded beat."""
        return self._clock() - self._last_beat

    def expired(self) -> bool:
        return (
            self.hang_timeout_s is not None
            and self.silence_s > self.hang_timeout_s
        )

    def check(self, context: str = "worker") -> None:
        """Raise :class:`WorkerHangError` if the deadline has passed."""
        if self.expired():
            raise WorkerHangError(
                f"{context} made no progress for "
                f"{self.silence_s:.1f}s (hang_timeout_s="
                f"{self.hang_timeout_s})"
            )
