"""Robustness subsystem: fault injection, hang detection, checkpoints.

Four pieces, used across the parallel trace-sim engine
(:mod:`repro.sim.parallel`), the sweep engine
(:mod:`repro.experiments.sweep`) and the experiment studies:

* :class:`FaultPlan` — deterministic, seeded fault injection (crash /
  hang / transient / slow / corrupt-payload) scheduled by worker id and
  step.
* :class:`Watchdog` — wall-clock hang detection driven by worker
  heartbeats; stalls surface as
  :class:`~repro.errors.WorkerHangError` instead of blocking forever.
* Graceful degradation — the engines accept ``on_failure="raise"`` or
  ``"serial"``; ``"serial"`` falls back to the bit-identical serial path
  for the affected work (see :data:`ON_FAILURE_MODES`).
* :class:`CheckpointJournal` / :class:`StudyCheckpoint` — crash-safe
  append-only JSONL journals behind the studies' ``checkpoint=`` /
  ``resume=`` options.
"""

from __future__ import annotations

import warnings

from repro.errors import ExperimentError
from repro.robust.faults import (
    ALL_FAULT_KINDS,
    DIST_FAULT_KINDS,
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    corrupt_blob,
    execute_fault,
)
from repro.robust.fsutil import (
    durable_link,
    durable_replace,
    durable_write,
    fsync_dir,
    sweep_stale_tmp,
)
from repro.robust.journal import (
    JOURNAL_VERSION,
    CheckpointJournal,
    JournalReplay,
    StudyCheckpoint,
    payload_sha,
)
from repro.robust.watchdog import DEFAULT_HEARTBEAT_S, Deadline, Watchdog

__all__ = [
    "ALL_FAULT_KINDS",
    "DIST_FAULT_KINDS",
    "FAULT_KINDS",
    "FaultPlan",
    "durable_link",
    "durable_replace",
    "durable_write",
    "fsync_dir",
    "sweep_stale_tmp",
    "FaultSpec",
    "InjectedFault",
    "corrupt_blob",
    "execute_fault",
    "JOURNAL_VERSION",
    "CheckpointJournal",
    "JournalReplay",
    "StudyCheckpoint",
    "payload_sha",
    "DEFAULT_HEARTBEAT_S",
    "Deadline",
    "Watchdog",
    "ON_FAILURE_MODES",
    "DegradedRunWarning",
    "validate_on_failure",
    "warn_degraded",
]

#: Failure policies the parallel engines accept: fail fast, or degrade
#: to the bit-identical serial path for the affected work.
ON_FAILURE_MODES = ("raise", "serial")


class DegradedRunWarning(UserWarning):
    """A parallel run fell back to the serial path after a worker fault."""


def validate_on_failure(on_failure: str) -> str:
    """Validate an ``on_failure`` policy value, returning it unchanged."""
    if on_failure not in ON_FAILURE_MODES:
        raise ExperimentError(
            f"on_failure must be one of {ON_FAILURE_MODES}, got {on_failure!r}"
        )
    return on_failure


def warn_degraded(subsystem: str, reason: str) -> None:
    """Emit the standard degradation warning (always catchable in tests)."""
    warnings.warn(
        f"{subsystem}: parallel execution failed ({reason}); "
        f"degrading to the serial path",
        DegradedRunWarning,
        stacklevel=3,
    )
