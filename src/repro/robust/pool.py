"""One supervised spawn pool: per-key streams merged in serial order.

:class:`StreamPool` runs one stream per key (``task(key)`` returns an
iterable) and yields ``(key, item)`` round-robin: each round takes the
next item of every live key, in key order.  Key ``i`` runs on spawned
worker ``i % W`` (``W = min(workers, len(keys))``), which walks its keys
in the same order, so its bounded queue delivers exactly what the merge
consumes next; ``workers=None`` runs the same merge in-process.

Start-up: every worker is started with small arguments (its queue, its
inbox pipe, its id, the fault plan and the observability context), so
``start()`` never waits for a child to import anything; only then does
the parent send each worker the task and its keys through the inbox.
The workers import side by side, and a send to a worker that died before
taking its keys raises :class:`~repro.errors.WorkerCrashError`.  A worker
that has its keys and has opened its streams sends a ready message.

Supervision: the :class:`Watchdog` deadline applies to worker ``w`` only
after ``w``'s ready message, which resets it, and every later worker
step ships one message, which resets it again; so ``hang_timeout_s``
bounds per-step silence, and start-up is bounded by the dead-worker
polling alone.  The ready message is not a step.  The pool ships worker
errors back as :class:`~repro.errors.WorkerCrashError`, fires
:class:`FaultPlan` hooks in workers (``corrupt`` tampers with ``bytes``
items; consumers verify them), merges worker metrics into the parent's,
and on leaving its ``with`` block terminates and joins every worker.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod

from repro.errors import SimulationError, WorkerCrashError
from repro.robust.faults import FaultPlan, corrupt_blob, execute_fault
from repro.robust.watchdog import Watchdog

__all__ = ["QUEUE_DEPTH", "StreamPool"]

#: Messages a worker may buffer ahead of the consumer (backpressure).
QUEUE_DEPTH = 16
#: How often a waiting parent checks the watchdog and worker liveness.
_POLL_S = 0.05
#: How long messages still in flight from an exited worker may take.
_DRAIN_GRACE_S = 0.25

_ITEM, _END, _ERROR, _EXIT, _READY = range(5)
_DONE = object()  # end-of-stream inside one process


def _round_robin(indices, pull):
    """Yield ``(i, pull(i))`` in serial round-robin order; a stream leaves
    after the round in which ``pull`` returned :data:`_DONE`."""
    live = list(indices)
    while live:
        still = []
        for i in live:
            item = pull(i)
            yield i, item
            if item is not _DONE:
                still.append(i)
        live = still


def _close_all(streams) -> None:
    """Close abandoned generators, so their cleanup runs now."""
    for stream in streams:
        close = getattr(stream, "close", None)
        if close is not None:
            close()


def _worker(out, inbox, worker, fault_plan, obs_ctx, span) -> None:
    """Take the task and the ``(index, key)`` streams it owns from
    ``inbox``, report ready, then run them and ship every step; on
    failure ship the error and exit 1, which the parent polls for."""
    from repro import obs

    streams: dict[int, object] = {}
    current = None
    steps = 0

    def pull(i):
        nonlocal current, steps
        current = keys[i]
        fault = fault_plan.fire(worker, steps) if fault_plan else None
        steps += 1
        if fault is not None and fault.kind != "corrupt":
            execute_fault(fault)
        item = next(streams[i], _DONE)
        if fault is not None and fault.kind == "corrupt" and isinstance(item, bytes):
            item = corrupt_blob(item)
        return item

    try:
        with inbox:
            task, owned = inbox.recv()
        keys = dict(owned)
        with obs.attach(obs_ctx), (
            obs.span(span, _mem=True, worker=worker, streams=list(keys))
            if span else obs.NULL_SPAN
        ) as wspan:
            for i, key in owned:
                current = key
                streams[i] = iter(task(key))
            out.put((_READY, None))
            for _, item in _round_robin(keys, pull):
                out.put((_END, None) if item is _DONE else (_ITEM, item))
            wspan.set(steps=steps)
            metrics = obs.OBS.metrics.export() if obs.metrics_active() else None
        out.put((_EXIT, metrics))
    except BaseException as exc:  # ship the failure; never die silently
        out.put((_ERROR, f"worker {worker} failed on key {current!r}: "
                         f"{type(exc).__name__}: {exc}"))
        raise SystemExit(1)
    finally:
        _close_all(streams.values())


class StreamPool:
    """Run ``task(key)`` streams for every key; iterate for ``(key, item)``.

    With ``workers`` set, ``task`` and the keys must be picklable.
    ``fault_plan`` and ``hang_timeout_s`` apply to workers only; ``span``
    names a span each worker opens around its streams.  Use as a context
    manager.
    """

    def __init__(
        self,
        task,
        keys,
        workers: int | None,
        fault_plan: FaultPlan | None = None,
        hang_timeout_s: float | None = None,
        span: str | None = None,
    ):
        if workers is not None and workers < 1:
            raise SimulationError(f"workers must be >= 1, got {workers}")
        self.task = task
        self.keys = list(keys)
        self.workers = None if workers is None else min(workers, len(self.keys))
        self.fault_plan = fault_plan
        self.span = span
        self._watchdog = Watchdog(hang_timeout_s)
        self._streams: dict[int, object] = {}
        self._procs: list = []
        self._queues: list = []
        self._ready: list[bool] = []

    def __enter__(self) -> "StreamPool":
        try:
            if self.workers is None:
                for i, key in enumerate(self.keys):
                    self._streams[i] = iter(self.task(key))
            else:
                self._spawn()
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def _spawn(self) -> None:
        from repro import obs

        ctx = mp.get_context("spawn")
        obs_ctx = obs.worker_context()
        n = self.workers
        self._ready = [False] * n
        inboxes = []
        try:
            # Start every worker before sending any its keys: a start()
            # whose arguments overflow the pipe waits for that child's
            # imports, which would start the workers one after another.
            for w in range(n):
                out = ctx.Queue(maxsize=QUEUE_DEPTH)
                self._queues.append(out)
                recv_end, send_end = ctx.Pipe(duplex=False)
                inboxes.append(send_end)
                with recv_end:  # the started child holds its own copy
                    proc = ctx.Process(
                        target=_worker,
                        args=(out, recv_end, w, self.fault_plan, obs_ctx,
                              self.span),
                        daemon=True,
                    )
                    proc.start()
                self._procs.append(proc)
            for w, inbox in enumerate(inboxes):
                owned = [(i, self.keys[i]) for i in range(w, len(self.keys), n)]
                try:
                    inbox.send((self.task, owned))
                except OSError:
                    proc = self._procs[w]
                    proc.join(_DRAIN_GRACE_S)
                    raise WorkerCrashError(
                        f"pool worker {w} died with exit code "
                        f"{proc.exitcode} before taking its keys"
                    ) from None
        finally:
            for inbox in inboxes:
                inbox.close()

    def __iter__(self):
        pull = self._pull_local if self.workers is None else self._pull_remote
        for i, item in _round_robin(range(len(self.keys)), pull):
            if item is not _DONE:
                yield self.keys[i], item
        if self.workers is not None:
            self._collect()

    def _pull_local(self, i):
        return next(self._streams[i], _DONE)

    def _pull_remote(self, i):
        kind, payload = self._get(i % self.workers)
        return _DONE if kind == _END else payload

    def _collect(self) -> None:
        """Merge each worker's metrics, shipped after its last stream."""
        from repro import obs

        for w in range(self.workers):
            _, metrics = self._get(w)
            if metrics is not None and obs.metrics_active():
                obs.OBS.metrics.merge(metrics)

    def _get(self, w: int):
        """Next message from worker ``w``, supervising every worker; the
        watchdog applies once ``w`` has reported ready."""
        while True:
            try:
                kind, payload = self._queues[w].get(timeout=_POLL_S)
            except queue_mod.Empty:
                if self._ready[w]:
                    self._watchdog.check(f"pool worker {w}")
                msg = self._last_words(w)
                if msg is None:
                    continue
                kind, payload = msg
            self._watchdog.beat()
            if kind == _READY:
                self._ready[w] = True
                continue
            if kind == _ERROR:
                raise WorkerCrashError(f"pool {payload}")
            return kind, payload

    def _last_words(self, w: int):
        """For a dead worker — ``w`` once it exited, any other once it
        exited non-zero — return its error, or ``w``'s message in flight;
        raise if there is none."""
        for v, proc in enumerate(self._procs):
            code = proc.exitcode
            if code is None or (code == 0 and v != w):
                continue
            try:
                while True:
                    msg = self._queues[v].get(timeout=_DRAIN_GRACE_S)
                    if msg[0] == _ERROR or v == w:
                        return msg
            except queue_mod.Empty:
                raise WorkerCrashError(
                    f"pool worker {v} died with exit code {code} before "
                    f"completing its streams"
                ) from None
        return None

    def close(self) -> None:
        """Terminate and join every worker, close in-process streams."""
        procs, self._procs = self._procs, []
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - terminate() sufficed so far
                proc.kill()
                proc.join(timeout=5.0)
        for out in self._queues:
            out.close()
        self._queues = []
        streams, self._streams = self._streams, {}
        _close_all(streams.values())
