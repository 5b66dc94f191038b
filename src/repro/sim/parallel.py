"""The one run loop of :class:`~repro.sim.multicore.MulticoreTraceSim`.

Per-core private caches are independent, so :func:`run_parallel` runs
each thread's private L1/L2 as one stream of the supervised stream pool
(:class:`~repro.robust.StreamPool`, which owns the processes, watchdog,
fault hooks, worker metrics and teardown), in-process with
``workers=None`` and on pool workers otherwise:

* **Private phase (streams).**  A stream receives its thread's
  :class:`~repro.trace.ir.TraceShard` (generate, memory-map or build a
  trace-IR entry — :mod:`repro.trace.ir`) and carried core snapshot,
  replays the shard through a fresh
  :class:`~repro.sim.hierarchy.CoreHierarchy` and yields each segment's
  L2-miss residue — on a worker as a SHA-256-verified IR frame
  (:func:`pack_miss_stream`), in-process as the arrays — then the
  core's final snapshot.
* **Shared phase (caller).**  The pool yields the residues in the serial
  round-robin chunk order (thread 0 chunk 0, thread 1 chunk 0, ...),
  which the caller replays into each socket's shared L3 while any
  workers keep producing.

The merged L3 stream is the serial stream, chunk for chunk, so every
statistic and carried cache state equals the serial loop's, kept as the
test oracle ``tests/sim/multicore_oracle.py``.  A corrupt frame fails
its digest and raises :class:`~repro.errors.WorkerCrashError`.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.errors import WorkerCrashError
from repro.robust import FaultPlan, StreamPool
from repro.sim.config import MachineSpec
from repro.sim.hierarchy import CoreHierarchy
from repro.trace.ir import TraceShard, decode_frame, encode_frame

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.multicore import MulticoreTraceSim

__all__ = [
    "pack_miss_stream",
    "run_parallel",
    "unpack_miss_stream",
]


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


@dataclass(frozen=True)
class _ThreadWork:
    """One thread's pool key: its id, shard and carried core snapshot."""

    thread: int
    shard: TraceShard = field(repr=False)
    snapshot: dict = field(repr=False)


def _thread_stream(
    machine: MachineSpec, backend: str, pack: bool, work: _ThreadWork
):
    """One thread's private phase: each segment's L2-miss residue (a packed
    frame when ``pack``), then the core's final snapshot.  Closing the
    stream early closes the shard, so a build in progress publishes
    nothing."""
    core = CoreHierarchy(machine, backend=backend)
    core.load_state(work.snapshot)
    with closing(work.shard.segments()) as segments:
        for segment in segments:
            misses = core.access_lines(*segment)
            # Hold neither the segment nor its residue while the next
            # segment is built, so an in-process pass keeps one alive.
            del segment
            if pack:
                misses = pack_miss_stream(*misses)
            yield misses
            del misses
    yield core.state_snapshot()


def run_parallel(
    sim: "MulticoreTraceSim",
    shards: list[TraceShard],
    workers: int | None = None,
    fault_plan: FaultPlan | None = None,
    hang_timeout_s: float | None = None,
) -> None:
    """Run one simulation pass, leaving ``sim``'s sockets in the exact
    state the serial round-robin loop would have produced.

    ``shards`` holds each thread's segment source, indexed by thread id
    (:meth:`MulticoreTraceSim._pass`).  With ``workers=None`` the
    streams run in-process; otherwise on that many pool workers.  Carried
    state from earlier ``run()`` calls is snapshotted into the streams
    and the final private states are restored into ``sim``, so repeated
    runs on one sim object stay bit-identical too.  A worker that raises,
    dies or ships a corrupt frame raises :class:`WorkerCrashError`; with
    ``hang_timeout_s`` set, a worker silent past it after its ready
    message raises :class:`~repro.errors.WorkerHangError`, so it bounds
    one chunk's step, not a worker's start-up.  Every worker is terminated
    and joined before the call returns, on every path.
    """
    placement = sim.placement
    n_threads = placement.threads
    pack = workers is not None
    keys = [
        _ThreadWork(t, shards[t], sim.sockets[s].cores[c].state_snapshot())
        for t, (s, c) in enumerate(placement.assignments)
    ]
    with obs.span(
        "parallel.run", workers=min(workers or 0, n_threads), threads=n_threads
    ), StreamPool(
        partial(_thread_stream, sim.machine, sim.backend, pack), keys, workers,
        fault_plan=fault_plan, hang_timeout_s=hang_timeout_s,
        span="parallel.worker",
    ) as pool, obs.span("parallel.l3_replay", _mem=True) as replay_span:
        chunks = 0
        for work, item in pool:
            s, c = placement.assignments[work.thread]
            if isinstance(item, dict):
                sim.sockets[s].cores[c].load_state(item)
                continue
            if pack:
                try:
                    item = unpack_miss_stream(item)
                except Exception as exc:
                    raise WorkerCrashError(
                        f"corrupt miss-stream payload (thread {work.thread}): "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
            lines, is_write, tags = item
            sim.sockets[s].absorb_miss_stream(lines, is_write, tags)
            chunks += 1
        replay_span.set(chunks=chunks)
    obs.count("sim.chunks", chunks, path="parallel" if pack else "serial")
