"""Watchdog-guarded evaluation worker pool for the advisor service.

Long-lived spawn-context processes, one task queue and one result queue
*per worker* so a crashed worker's in-flight traffic can never bleed
into another worker's conversation.  Workers evaluate sample points
through :func:`repro.experiments.sweep.evaluate_batch` — the same loop
sweep shards run — emitting heartbeats between points so the parent's
:class:`~repro.robust.watchdog.Watchdog` can tell a slow worker from a
hung one.

Failure contract (what the batching layer degrades on):

* worker process dies mid-task → :class:`~repro.errors.WorkerCrashError`
  and the pool respawns a replacement under a *fresh* worker id (a
  deterministic :class:`~repro.robust.faults.FaultPlan` addressed at the
  dead id cannot re-kill the replacement);
* worker alive but silent past ``hang_timeout_s`` →
  :class:`~repro.errors.WorkerHangError`, worker terminated, replacement
  spawned;
* worker returns a torn or corrupt payload (wrong length, ``None``
  holes, mismatched keys) → :class:`WorkerCrashError`; the payload is
  discarded, the worker is retired;
* worker raises (e.g. an injected transient) → :class:`WorkerCrashError`
  carrying the message, worker *kept* — a raised exception proves the
  worker's loop is intact.

Faults consume one flat step space per worker id: ``step_base`` carries
each worker's cumulative evaluated-point count across batches, exactly
like a sweep shard's step counter.

A freshly spawned worker sends ``("ready", worker_id)`` once it has
booted (imports, model unpickling); the hang watchdog starts from that
message, so a spawn boot never counts against ``hang_timeout_s``.  The
boot itself is bounded by ``claim_timeout_s``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import time
from dataclasses import dataclass, field

from repro.errors import ServeError, WorkerCrashError, WorkerHangError
from repro.experiments.configs import SampleConfig
from repro.experiments.results import SampleResult
from repro.experiments.runner import ExperimentRunner
from repro.experiments.sweep import evaluate_batch
from repro.robust import FaultPlan, Watchdog
from repro.sim.analytic import PerformanceModel

__all__ = ["EvalWorkerPool"]

#: Worker-side heartbeat interval between evaluated points.
_HEARTBEAT_S = 0.1

#: Parent-side poll granularity while waiting on a worker.
_POLL_S = 0.02


def _serve_worker_main(
    worker_id: int,
    model: PerformanceModel,
    task_q,
    result_q,
    fault_plan: FaultPlan | None,
    heartbeat_s: float,
) -> None:
    """Worker loop: evaluate batches until the ``None`` sentinel arrives.

    Runs in a spawned child.  Heartbeats are sent from *this* loop
    between points — never from a side thread — so a heartbeat certifies
    evaluation progress, and a ``hang`` fault inside a point goes silent
    exactly as a real stall would.
    """
    runner = ExperimentRunner(model)
    result_q.put(("ready", worker_id))
    steps = 0
    while True:
        task = task_q.get()
        if task is None:
            return
        task_id, configs, measure, sample_hz = task
        out: list[SampleResult | None] = []
        last_beat = time.monotonic()
        try:
            for cfg in configs:
                out.extend(
                    evaluate_batch(
                        [cfg],
                        runner,
                        measure,
                        sample_hz,
                        worker=worker_id,
                        step_base=steps,
                        fault_plan=fault_plan,
                    )
                )
                steps += 1
                now = time.monotonic()
                if now - last_beat >= heartbeat_s:
                    result_q.put(("hb", worker_id))
                    last_beat = now
            result_q.put(("ok", worker_id, task_id, out))
        except BaseException as exc:  # noqa: BLE001 - forwarded to parent
            # Only the points actually reached consumed steps; the one
            # that raised consumed exactly one more.  Advancing by the
            # full batch here would skip step addresses, making faults
            # scheduled in the gap unreachable for this worker.
            steps += 1
            try:
                result_q.put(
                    ("err", worker_id, task_id, f"{type(exc).__name__}: {exc}")
                )
            except Exception:
                os._exit(4)


@dataclass
class _WorkerHandle:
    worker_id: int
    process: mp.Process = field(repr=False)
    task_q: object = field(repr=False)
    result_q: object = field(repr=False)
    #: Set once the worker's ``("ready", id)`` boot message has arrived.
    booted: bool = False


class EvalWorkerPool:
    """A fixed-size pool of evaluation workers with crash/hang recovery.

    ``workers=0`` is a valid, empty pool: :meth:`evaluate` raises
    :class:`ServeError` immediately and the batching layer falls back to
    the in-process analytic path — the service's fully-degraded mode.

    Thread safety: :meth:`evaluate` may be called from multiple executor
    threads concurrently; each call claims a whole worker off the
    internal idle queue, so two calls never interleave traffic on one
    worker's queues.  Respawns happen inside the claiming thread.
    """

    def __init__(
        self,
        model: PerformanceModel,
        workers: int = 1,
        hang_timeout_s: float | None = 10.0,
        fault_plan: FaultPlan | None = None,
        heartbeat_s: float = _HEARTBEAT_S,
        claim_timeout_s: float = 60.0,
    ):
        if workers < 0:
            raise ServeError(f"workers must be >= 0, got {workers}")
        self.model = model
        self.hang_timeout_s = hang_timeout_s
        self.fault_plan = fault_plan
        self.heartbeat_s = heartbeat_s
        self.claim_timeout_s = claim_timeout_s
        self._ctx = mp.get_context("spawn")
        self._idle: queue.Queue[_WorkerHandle] = queue.Queue()
        self._handles: dict[int, _WorkerHandle] = {}
        self._next_id = 0
        self._task_seq = 0
        self._closed = False
        self.respawns = 0
        for _ in range(workers):
            self._idle.put(self._spawn())

    # -- lifecycle ------------------------------------------------------------

    def _spawn(self) -> _WorkerHandle:
        worker_id = self._next_id
        self._next_id += 1
        task_q = self._ctx.Queue()
        result_q = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_serve_worker_main,
            args=(
                worker_id,
                self.model,
                task_q,
                result_q,
                self.fault_plan,
                self.heartbeat_s,
            ),
            daemon=True,
        )
        proc.start()
        handle = _WorkerHandle(worker_id, proc, task_q, result_q)
        self._handles[worker_id] = handle
        return handle

    def _retire(self, handle: _WorkerHandle) -> None:
        """Terminate a broken worker and replace it with a fresh id."""
        if handle.process.is_alive():
            handle.process.terminate()
        handle.process.join(timeout=5.0)
        handle.task_q.close()
        handle.result_q.close()
        self._handles.pop(handle.worker_id, None)
        if not self._closed:
            self.respawns += 1
            self._idle.put(self._spawn())

    def workers_alive(self) -> int:
        return sum(1 for h in self._handles.values() if h.process.is_alive())

    def child_pids(self) -> list[int]:
        """PIDs of live pool children (for leak assertions in tests/CI)."""
        return [
            h.process.pid
            for h in self._handles.values()
            if h.process.is_alive() and h.process.pid is not None
        ]

    @property
    def size(self) -> int:
        return len(self._handles)

    def close(self) -> None:
        """Shut every worker down; zero children survive this call."""
        self._closed = True
        handles = list(self._handles.values())
        for handle in handles:
            try:
                handle.task_q.put(None)
            except Exception:
                pass
        for handle in handles:
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5.0)
            handle.task_q.close()
            handle.result_q.close()
        self._handles.clear()

    # -- evaluation -----------------------------------------------------------

    def evaluate(
        self,
        configs: list[SampleConfig],
        measure: str = "model",
        sample_hz: float = 10.0,
    ) -> dict[str, SampleResult]:
        """Evaluate one batch on a claimed worker; returns key -> result.

        Raises :class:`WorkerCrashError` / :class:`WorkerHangError` on
        worker failure (after retiring and respawning the worker), or
        :class:`ServeError` if the pool is empty or closed.
        """
        if self._closed:
            raise ServeError("worker pool is closed")
        if not self._handles:
            raise ServeError("worker pool has no workers")
        try:
            handle = self._idle.get(timeout=self.claim_timeout_s)
        except queue.Empty:
            raise ServeError(
                f"no evaluation worker became idle within "
                f"{self.claim_timeout_s}s"
            ) from None
        try:
            results = self._run_on(handle, configs, measure, sample_hz)
        except (WorkerCrashError, WorkerHangError) as exc:
            # An exception the worker *reported* proves its loop is
            # intact: keep it.  Anything else (dead process, silence,
            # torn payload) retires it for a fresh-id replacement.
            if getattr(exc, "worker_intact", False) and handle.process.is_alive():
                self._idle.put(handle)
            else:
                self._retire(handle)
            raise
        self._idle.put(handle)
        return results

    def _run_on(
        self,
        handle: _WorkerHandle,
        configs: list[SampleConfig],
        measure: str,
        sample_hz: float,
    ) -> dict[str, SampleResult]:
        self._task_seq += 1
        task_id = self._task_seq
        handle.task_q.put((task_id, list(configs), measure, sample_hz))
        # Until the worker reports ready, the budget is its boot.
        watchdog = Watchdog(
            self.hang_timeout_s if handle.booted else self.claim_timeout_s
        )
        while True:
            try:
                msg = handle.result_q.get(timeout=_POLL_S)
            except queue.Empty:
                if not handle.process.is_alive():
                    raise WorkerCrashError(
                        f"serve worker {handle.worker_id} died mid-task "
                        f"(exitcode {handle.process.exitcode})"
                    ) from None
                booting = "" if handle.booted else " (booting)"
                watchdog.check(f"serve worker {handle.worker_id}{booting}")
                continue
            kind = msg[0]
            if kind == "ready":
                handle.booted = True
                watchdog = Watchdog(self.hang_timeout_s)
                continue
            watchdog.beat()
            if kind == "hb":
                continue
            if kind == "err":
                # The worker survived its own exception; the batch failed
                # (same taxonomy as a crash for callers) but the worker
                # itself is reusable — flagged for evaluate()'s triage.
                exc = WorkerCrashError(
                    f"serve worker {handle.worker_id} failed: {msg[3]}"
                )
                exc.worker_intact = True
                raise exc
            _, _, got_task, payload = msg
            if got_task != task_id:
                # Stale completion from a batch whose error already
                # resolved this conversation; drop it.
                continue
            return self._validate_payload(handle, configs, payload)

    @staticmethod
    def _validate_payload(
        handle: _WorkerHandle,
        configs: list[SampleConfig],
        payload,
    ) -> dict[str, SampleResult]:
        if not isinstance(payload, list) or len(payload) != len(configs):
            raise WorkerCrashError(
                f"serve worker {handle.worker_id} returned a torn payload "
                f"({len(payload) if isinstance(payload, list) else type(payload)}"
                f" for {len(configs)} configs)"
            )
        out: dict[str, SampleResult] = {}
        for cfg, result in zip(configs, payload):
            if result is None:
                raise WorkerCrashError(
                    f"serve worker {handle.worker_id} returned a corrupt "
                    f"payload (hole at {cfg.key})"
                )
            if result.config.key != cfg.key:
                raise WorkerCrashError(
                    f"serve worker {handle.worker_id} returned mismatched "
                    f"result {result.config.key} for {cfg.key}"
                )
            out[cfg.key] = result
        return out

    # -- context manager ------------------------------------------------------

    def __enter__(self) -> "EvalWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
