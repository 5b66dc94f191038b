"""Process-parallel, pipelined multicore trace simulation.

Serial :meth:`~repro.sim.multicore.MulticoreTraceSim.run` simulates every
thread's trace and private L1/L2 in one process, so a 16-thread
configuration costs ~16x a single-thread simulation even though per-core
private caches are completely independent.  This module exploits that
structure:

* **Stage 1 — private phase (workers).**  Threads are assigned
  round-robin to ``min(workers, threads)`` spawned worker processes.
  Each worker obtains its threads' trace shards locally, from one
  picklable :class:`~repro.trace.ir.TraceShard` per thread: it
  generates the trace, memory-maps a trace-IR cache entry
  (:mod:`repro.trace.ir`) whose read-only pages the OS shares across
  every worker, or — on a cache miss — generates the trace and writes
  the entry while replaying it (:func:`~repro.trace.ir.tee_trace_ir`),
  publishing the file when the shard ends.  Raw trace chunks are never
  shipped across processes.  The parent decides hit or miss per thread
  before spawning, builds nothing, and runs the cache's only stale-tmp
  sweep; a fingerprint several threads share is built by one of them.
  Each worker runs its shards' line segments through fresh
  :class:`~repro.sim.hierarchy.CoreHierarchy` instances seeded with the
  parent's carried-state snapshots, and streams each chunk's L2-miss
  residue back as a compact columnar IR frame (delta+bit-packed,
  SHA-256-verified — the :func:`repro.trace.ir.encode_frame` codec) on
  a bounded queue.  When a thread's shard is exhausted the worker
  sends that core's final private-state snapshot (cache contents +
  :class:`~repro.sim.cache.CacheStats`).
* **Stage 2 — shared phase (parent).**  The parent consumes the miss
  streams in exactly the serial round-robin chunk order (thread 0 chunk
  0, thread 1 chunk 0, ...) and replays them into each socket's shared
  L3 via :meth:`~repro.sim.hierarchy.SocketSim.absorb_miss_stream`,
  overlapping L3 consumption with worker production.  The bounded queues
  provide backpressure: a worker that runs far ahead of the replay
  blocks instead of buffering unboundedly.

**Determinism.**  Within one worker, threads are interleaved
chunk-by-chunk in ascending thread order — the serial loop restricted to
that worker's thread subset — so each worker's queue delivers messages in
exactly the order the parent's global round-robin wants them from that
worker.  The parent's k-way merge therefore never reorders or buffers:
the merged L3 stream is the serial stream, chunk for chunk, and because
the private levels are simulated with the same engines over the same
chunk boundaries, every statistic and every carried cache state is
bit-identical to the serial run (``tests/sim/test_multicore_parallel.py``
enforces this differentially).

**Robustness** (see :mod:`repro.robust`):

* Workers are plain ``multiprocessing`` processes on plain bounded
  ``multiprocessing`` queues — no pool, no ``Manager`` process — so the
  parent can deterministically ``terminate()`` every child on any exit
  path; ``run_parallel`` never leaks children.
* A worker that raises ships the error back as a message
  (:class:`~repro.errors.WorkerCrashError` in the parent); a worker that
  *dies* (hard exit, OOM-kill) is detected by polling its liveness while
  waiting on its queue.
* Workers emit heartbeat messages whenever ``heartbeat_s`` passes
  without data traffic, and the parent runs a wall-clock
  :class:`~repro.robust.Watchdog` over each queue wait: with
  ``hang_timeout_s`` set, a worker stuck inside one chunk surfaces as
  :class:`~repro.errors.WorkerHangError` within the timeout instead of
  blocking forever, while a slow-but-progressing worker keeps beating
  and never trips it.
* Deterministic fault injection for all of the above: a
  :class:`~repro.robust.FaultPlan` rides into the workers and fires
  crash / hang / transient / slow / corrupt-payload faults by worker id
  and chunk step.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import sys
import time
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.errors import SimulationError, WorkerCrashError
from repro.robust import DEFAULT_HEARTBEAT_S, FaultPlan, Watchdog, corrupt_blob, execute_fault
from repro.sim.config import MachineSpec
from repro.sim.hierarchy import CoreHierarchy
from repro.trace.ir import TraceShard, decode_frame, encode_frame

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.multicore import MulticoreTraceSim

__all__ = [
    "DEFAULT_QUEUE_DEPTH",
    "DEFAULT_START_METHOD",
    "pack_miss_stream",
    "run_parallel",
    "unpack_miss_stream",
]

#: Messages a worker may buffer ahead of the parent's L3 replay, per
#: worker.  Small enough to bound memory, large enough to ride out the
#: replay's per-chunk latency jitter.
DEFAULT_QUEUE_DEPTH = 16

#: ``spawn`` everywhere: identical behaviour across platforms and no
#: fork-vs-threads hazards; workers re-import the package and receive
#: everything they need as pickled arguments.
DEFAULT_START_METHOD = "spawn"

_MSG_MISS = 0
_MSG_DONE = 1
_MSG_HEARTBEAT = 2
_MSG_ERROR = 3
_MSG_METRICS = 4

#: How long the parent waits for straggling messages from a worker whose
#: process has already exited, before declaring the payload lost.
_DRAIN_GRACE_S = 0.25


def pack_miss_stream(
    lines: np.ndarray, is_write: np.ndarray, tags: np.ndarray
) -> bytes:
    """Serialize one chunk's L2-miss residue as a columnar IR frame.

    Delta+bit-packed with a SHA-256 digest
    (:func:`repro.trace.ir.encode_frame`) — a fraction of the npz blobs
    these queues used to carry, and self-verifying: a frame corrupted in
    flight fails its digest on :func:`unpack_miss_stream`.
    """
    return encode_frame(lines, is_write, tags)


def unpack_miss_stream(blob: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_miss_stream`.

    Raises :class:`~repro.errors.TraceError` on a torn or corrupt frame.
    """
    lines, is_write, tags, _ = decode_frame(blob)
    return lines, is_write, tags


def _private_phase_worker(
    out_queue,
    worker_id: int,
    machine: MachineSpec,
    backend: str,
    thread_ids: list[int],
    shards: list[TraceShard],
    snapshots: dict[int, dict],
    fault_plan: FaultPlan | None,
    heartbeat_s: float,
    obs_ctx=None,
) -> None:
    """Stage 1: simulate this worker's threads' private L1/L2.

    Mirrors the serial round-robin loop over the assigned thread subset,
    so the queue's message order matches the parent's consumption order.
    ``shards`` (aligned with ``thread_ids``) yield one lowered line
    segment per generator chunk whether they generate, map or build, so
    the message stream is identical either way.  A shard abandoned by an
    error is closed: a build in progress publishes nothing.
    ``fault_plan`` faults fire by chunk step; exceptions are shipped back
    as an error message rather than dying silently.  ``obs_ctx`` (a
    :class:`repro.obs.SpanContext` or ``None``) re-attaches the parent's
    trace so this worker's spans land in the same tree.
    """
    last_send = time.monotonic()

    def send(msg) -> None:
        nonlocal last_send
        out_queue.put(msg)
        last_send = time.monotonic()

    gens: dict[int, object] = {}
    try:
        with obs.attach(obs_ctx), obs.span(
            "parallel.worker",
            _mem=True,
            worker=worker_id,
            threads=list(thread_ids),
        ) as wspan:
            cores: dict[int, CoreHierarchy] = {}
            for t, shard in zip(thread_ids, shards):
                core = CoreHierarchy(machine, backend=backend)
                snap = snapshots.get(t)
                if snap is not None:
                    core.load_state(snap)
                cores[t] = core
                gens[t] = shard.segments()
            step = 0
            live = list(thread_ids)
            while live:
                finished = []
                for t in live:
                    if time.monotonic() - last_send >= heartbeat_s:
                        send((_MSG_HEARTBEAT, worker_id, None))
                    fault = fault_plan.fire(worker_id, step) if fault_plan else None
                    if fault is not None and fault.kind != "corrupt":
                        execute_fault(fault)
                    step += 1
                    try:
                        segment = next(gens[t])
                    except StopIteration:
                        send((_MSG_DONE, t, cores[t].state_snapshot()))
                        finished.append(t)
                        continue
                    lines, w, tags = cores[t].access_lines(*segment)
                    blob = pack_miss_stream(lines, w, tags)
                    if fault is not None and fault.kind == "corrupt":
                        blob = corrupt_blob(blob)
                    send((_MSG_MISS, t, blob))
                for t in finished:
                    live.remove(t)
            wspan.set(chunks=step)
            # Worker-side counters accumulated in the attach-installed
            # registry ride home after the last DONE; the parent merges
            # them so snapshots stop under-reporting worker work.
            if obs.metrics_active():
                send((_MSG_METRICS, worker_id, obs.OBS.metrics.export()))
    except BaseException as exc:  # ship the failure; never die silently
        out_queue.put((_MSG_ERROR, worker_id, f"{type(exc).__name__}: {exc}"))
    finally:
        for gen in gens.values():
            gen.close()


def _pop(q, proc, watchdog: Watchdog, poll_s: float = 0.05):
    """Blocking queue read that notices dead and hung workers.

    Heartbeats feed the watchdog and are consumed here; error messages
    raise :class:`WorkerCrashError`; watchdog expiry raises
    :class:`WorkerHangError`; a dead worker with a drained queue raises
    :class:`WorkerCrashError`.  Only data messages are returned.
    """
    while True:
        try:
            msg = q.get(timeout=poll_s)
        except queue_mod.Empty:
            watchdog.check("parallel private-phase worker")
            if proc.exitcode is None:
                continue
            # The process is gone; give its queue feeder a moment to
            # deliver anything already in flight, then declare the crash.
            try:
                msg = q.get(timeout=_DRAIN_GRACE_S)
            except queue_mod.Empty:
                raise WorkerCrashError(
                    f"parallel private-phase worker died with exit code "
                    f"{proc.exitcode} before completing its threads"
                ) from None
        watchdog.beat()
        kind = msg[0]
        if kind == _MSG_HEARTBEAT:
            obs.count("parallel.heartbeats")
            continue
        if kind == _MSG_ERROR:
            raise WorkerCrashError(
                f"parallel private-phase worker failed: {msg[2]}"
            )
        return msg


def run_parallel(
    sim: "MulticoreTraceSim",
    shards: list[TraceShard],
    workers: int,
    queue_depth: int = DEFAULT_QUEUE_DEPTH,
    start_method: str = DEFAULT_START_METHOD,
    fault_plan: FaultPlan | None = None,
    hang_timeout_s: float | None = None,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
) -> None:
    """Run one simulation pass, leaving ``sim``'s sockets in the exact
    state the serial loop would have produced.

    ``shards`` holds each thread's segment source, indexed by thread id
    (:meth:`MulticoreTraceSim._shards`): generated, memory-mapped from
    the trace-IR cache, or built into it while replayed — see
    :mod:`repro.trace.ir`; results are bit-identical either way.  Carried
    state from earlier ``run()`` calls is snapshotted into the workers
    and the final private states are restored into the parent, so
    repeated runs on one sim object (the calibration warm-up pattern)
    stay bit-identical too.

    Failure semantics: a worker that raises, dies or ships a corrupt
    payload raises :class:`WorkerCrashError`; with ``hang_timeout_s``
    set, a worker silent past the timeout raises
    :class:`~repro.errors.WorkerHangError`.  On *every* exit path all
    worker processes are terminated and joined before the call returns —
    no leaked children, no leaked manager (there is none).
    """
    if workers < 1:
        raise SimulationError(f"workers must be >= 1, got {workers}")
    if heartbeat_s <= 0:
        raise SimulationError(f"heartbeat_s must be positive, got {heartbeat_s}")
    placement = sim.placement
    n_threads = placement.threads
    n_workers = min(workers, n_threads)
    owner = [t % n_workers for t in range(n_threads)]
    per_worker = [
        [t for t in range(n_threads) if owner[t] == w] for w in range(n_workers)
    ]

    ctx = mp.get_context(start_method)
    queues = [ctx.Queue(maxsize=queue_depth) for _ in range(n_workers)]
    procs: list = []
    run_span = obs.span("parallel.run", workers=n_workers, threads=n_threads)
    try:
        run_span.__enter__()
        obs_ctx = obs.worker_context()
        for w in range(n_workers):
            snapshots = {}
            for t in per_worker[w]:
                s, c = placement.assignments[t]
                snapshots[t] = sim.sockets[s].cores[c].state_snapshot()
            p = ctx.Process(
                target=_private_phase_worker,
                args=(
                    queues[w],
                    w,
                    sim.machine,
                    sim.backend,
                    per_worker[w],
                    [shards[t] for t in per_worker[w]],
                    snapshots,
                    fault_plan,
                    heartbeat_s,
                    obs_ctx,
                ),
                daemon=True,
            )
            p.start()
            procs.append(p)

        # Stage 2: merge the per-worker streams in serial round-robin
        # order and replay into the shared L3s as they arrive.
        with obs.span("parallel.l3_replay", _mem=True) as replay_span:
            watchdog = Watchdog(hang_timeout_s)
            chunks = 0
            live = list(range(n_threads))
            while live:
                finished = []
                for t in live:
                    w = owner[t]
                    kind, msg_t, payload = _pop(queues[w], procs[w], watchdog)
                    if msg_t != t:
                        raise SimulationError(
                            f"parallel protocol error: expected thread {t}, "
                            f"got {msg_t}"
                        )
                    s, c = placement.assignments[t]
                    if kind == _MSG_DONE:
                        sim.sockets[s].cores[c].load_state(payload)
                        finished.append(t)
                    else:
                        try:
                            lines, is_write, tags = unpack_miss_stream(payload)
                        except Exception as exc:
                            raise WorkerCrashError(
                                f"corrupt miss-stream payload from worker {w} "
                                f"(thread {t}): {type(exc).__name__}: {exc}"
                            ) from exc
                        sim.sockets[s].absorb_miss_stream(lines, is_write, tags)
                        chunks += 1
                for t in finished:
                    live.remove(t)
            replay_span.set(chunks=chunks)
            # Each worker ships its metrics registry right after its
            # final DONE; fold them into the parent's so the session
            # snapshot includes worker-side counters.
            if obs_ctx is not None and obs_ctx.metrics and obs.metrics_active():
                for w in range(n_workers):
                    kind, msg_w, payload = _pop(queues[w], procs[w], watchdog)
                    if kind != _MSG_METRICS:
                        raise SimulationError(
                            f"parallel protocol error: expected metrics "
                            f"from worker {w}, got message kind {kind}"
                        )
                    obs.OBS.metrics.merge(payload)
        obs.count("sim.chunks", chunks, path="parallel")
        for p in procs:
            p.join(timeout=10.0)
            if p.exitcode not in (0, None):
                raise WorkerCrashError(
                    f"parallel private-phase worker exited with code "
                    f"{p.exitcode} after the merge completed"
                )
    finally:
        # Every exit path — success, crash, hang, KeyboardInterrupt —
        # tears the fleet down deterministically: terminate anything
        # still running (a worker blocked on a full queue included),
        # join with a kill escalation, and close the queues.
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            p.join(timeout=5.0)
            if p.is_alive():  # pragma: no cover - terminate() sufficed so far
                p.kill()
                p.join(timeout=5.0)
        for q in queues:
            q.close()
        run_span.__exit__(*sys.exc_info())
