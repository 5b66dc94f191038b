"""Robustness subsystem: fault injection, hang detection, checkpoints.

Used across the parallel trace-sim engine (:mod:`repro.sim.parallel`),
the advisor's evaluation pool (:mod:`repro.serve.workers`) and the
experiment studies:

* :class:`FaultPlan` — deterministic, seeded fault injection (crash /
  hang / transient / slow / corrupt-payload) scheduled by worker id and
  step.
* :class:`Watchdog` — wall-clock hang detection driven by worker
  heartbeats; stalls surface as
  :class:`~repro.errors.WorkerHangError` instead of blocking forever.
* Graceful degradation — the engines accept ``on_failure="raise"`` or
  ``"serial"``; ``"serial"`` falls back to the bit-identical serial path
  for the affected work (see :data:`ON_FAILURE_MODES`).
  :func:`fan_out` is the per-key process-pool fan-out of the
  cachegrind and mrc studies, with that policy built in.
* :class:`CheckpointJournal` / :class:`StudyCheckpoint` — crash-safe
  append-only JSONL journals behind the studies' ``checkpoint=`` /
  ``resume=`` options.
"""

from __future__ import annotations

import warnings

from repro.errors import ExperimentError
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
from repro.robust.watchdog import DEFAULT_HEARTBEAT_S, Deadline, Watchdog

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
    "DEFAULT_HEARTBEAT_S",
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


def fan_out(study: str, task, keys, workers: int | None, on_failure: str):
    """Yield ``(key, task(key))`` for every key, in key order.

    With ``workers > 1`` and more than one key, the calls run on a spawn
    process pool of ``min(workers, len(keys))`` processes, each passed
    the parent's trace context as ``obs_ctx=``; ``task`` must then be
    picklable (a module-level function or a :func:`functools.partial`
    of one).  Otherwise every call runs in-process.  A call that fails
    in the pool re-raises, unless ``on_failure="serial"``: then it is
    recomputed in-process, with a :class:`DegradedRunWarning` and a
    ``study.degradations`` count.
    """
    from repro import obs

    keys = list(keys)
    if workers is None or workers <= 1 or len(keys) <= 1:
        for key in keys:
            yield key, task(key)
        return

    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor

    n = min(workers, len(keys))
    # Pool tasks return typed results, not a message stream, so
    # worker-side counters have no ride home; say so explicitly rather
    # than let snapshots silently under-report.
    if obs.metrics_active():
        obs.gauge("workers_unmetered", n, study=study)
    with ProcessPoolExecutor(
        max_workers=n, mp_context=mp.get_context("spawn")
    ) as pool:
        futures = [
            (key, pool.submit(task, key, obs_ctx=obs.worker_context()))
            for key in keys
        ]
        for key, fut in futures:
            try:
                result = fut.result()
            except Exception as exc:
                if on_failure != "serial":
                    raise
                warn_degraded(f"run_{study}_study", f"{key}: {exc}")
                obs.count("study.degradations", study=study)
                result = task(key)
            yield key, result
