"""Robustness subsystem: fault injection, hang detection, checkpoints.

Used across the parallel trace-sim engine (:mod:`repro.sim.parallel`),
the advisor's evaluation pool (:mod:`repro.serve.workers`) and the
experiment studies:

* :class:`StreamPool` — the one supervised process pool, behind
  :mod:`repro.sim.parallel` and the studies' :func:`fan_out`
  (:mod:`repro.robust.pool`).  Its workers fork from a ``forkserver``
  that has ``repro`` preloaded (``spawn`` where the platform has no
  fork server), and refuse to run a ``repro`` other than the caller's.
* :class:`FaultPlan` — deterministic, seeded fault injection (crash /
  hang / transient / slow / corrupt-payload) scheduled by worker id and
  step.
* :class:`Watchdog` — wall-clock hang detection reset by every message
  a worker sends; stalls surface as
  :class:`~repro.errors.WorkerHangError` instead of blocking forever.
* Graceful degradation — the engines accept ``on_failure="raise"`` or
  ``"serial"``; ``"serial"`` falls back to the bit-identical serial path
  for the affected work (see :data:`ON_FAILURE_MODES`).
  :func:`fan_out` is the per-key fan-out of the cachegrind and mrc
  studies, with that policy built in.
* :class:`CheckpointJournal` / :class:`StudyCheckpoint` — crash-safe
  append-only JSONL journals behind the studies' ``checkpoint=`` /
  ``resume=`` options.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from functools import partial

from repro.errors import ExperimentError, WorkerCrashError, WorkerHangError
from repro.robust.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    corrupt_blob,
    execute_fault,
)
from repro.robust.fsutil import (
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
from repro.robust.pool import StreamPool
from repro.robust.watchdog import Deadline, Watchdog

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
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
    "StreamPool",
    "Deadline",
    "Watchdog",
    "ON_FAILURE_MODES",
    "DegradedRunWarning",
    "fan_out",
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


def _one_item(task, key):
    yield task(key)


@contextmanager
def fan_out(study: str, task, keys, workers: int | None, on_failure: str):
    """Context manager over ``(key, task(key))`` for every key, in key order.

    With ``workers > 1`` and several keys the calls run as one-item
    streams on a :class:`StreamPool` (no hang timeout; ``task`` must be
    picklable), otherwise in-process.  A pool failure raises, unless
    ``on_failure="serial"``: then every key not yet yielded is recomputed
    in-process, with a :class:`DegradedRunWarning` and a
    ``study.degradations`` count.
    """
    keys = list(keys)
    pooled = workers is not None and workers > 1 and len(keys) > 1
    with StreamPool(
        partial(_one_item, task), keys, workers if pooled else None
    ) as pool:
        yield _fan_out_results(
            study, task, keys, pool, on_failure if pooled else "raise"
        )


def _fan_out_results(study, task, keys, pool, on_failure):
    from repro import obs

    done = 0
    try:
        for key, result in pool:
            yield key, result
            done += 1
    except (WorkerCrashError, WorkerHangError) as exc:
        if on_failure != "serial":
            raise
        pool.close()
        warn_degraded(f"run_{study}_study", str(exc))
        obs.count("study.degradations", study=study)
        for key in keys[done:]:
            yield key, task(key)
