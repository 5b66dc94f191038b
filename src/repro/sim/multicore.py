"""Trace-driven multicore simulation of the naive kernel.

Mirrors the paper's execution setup (Section III): the output-row loop is
statically partitioned over threads (OpenMP ``parallel for``), threads are
either packed onto one socket (``s`` configurations) or split evenly
between both (``d``), each socket's threads share that socket's L3, and
every thread owns private L1/L2.

The simulation interleaves the threads' traces chunk by chunk in
round-robin order, approximating concurrent execution at the shared L3.
This is the *exact-cache* engine used at scaled problem sizes — for
calibration of the analytic model and for the cachegrind study — not a
timing simulator: time and energy at paper scale come from
:mod:`repro.sim.analytic`.

Every run is one pass of :func:`repro.sim.parallel.run_parallel`: one
stream per thread replays its trace shard through the private caches,
in-process with ``workers=None`` or on the supervised process pool, while
the caller replays the merged L2-miss streams into the shared L3s in the
serial order; results are bit-identical either way, and ``trace_cache=``
applies to both.  ``on_failure="serial"`` makes a pool run degrade
gracefully: if a worker crashes or hangs, the sim's pre-run cache state
is restored and the pass is redone in-process.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.errors import SimulationError
from repro.robust import FaultPlan, validate_on_failure, warn_degraded
from repro.sim.config import MachineSpec
from repro.sim.hierarchy import HierarchyResult, SocketSim
from repro.sim.parallel import run_parallel
from repro.trace.ir import matmul_trace_params, trace_shards
from repro.trace.matmul_trace import MatmulTraceSpec

__all__ = [
    "ThreadPlacement",
    "partition_rows",
    "partition_rows_cyclic",
    "MulticoreTraceSim",
]


@dataclass(frozen=True)
class ThreadPlacement:
    """Where each thread runs: ``(socket, core_within_socket)`` per thread."""

    threads: int
    sockets_used: int
    assignments: tuple[tuple[int, int], ...]

    @classmethod
    def pack(cls, machine: MachineSpec, threads: int, sockets_used: int) -> "ThreadPlacement":
        """The paper's placements: packed on one socket or split evenly.

        ``sockets_used=1`` packs threads onto socket 0; ``sockets_used=2``
        assigns threads alternately (even thread ids on socket 0), which
        distributes any row-partition imbalance evenly.
        """
        if threads <= 0:
            raise SimulationError(f"threads must be positive, got {threads}")
        if not 1 <= sockets_used <= machine.sockets:
            raise SimulationError(f"sockets_used {sockets_used} out of range")
        per_socket = -(-threads // sockets_used)
        if per_socket > machine.cores_per_socket:
            raise SimulationError(
                f"{threads} threads on {sockets_used} socket(s) exceeds "
                f"{machine.cores_per_socket} cores/socket"
            )
        counts = [0] * sockets_used
        assignments = []
        for t in range(threads):
            s = t % sockets_used
            assignments.append((s, counts[s]))
            counts[s] += 1
        return cls(threads, sockets_used, tuple(assignments))


def partition_rows(n: int, threads: int) -> list[range]:
    """OpenMP-style static partition of ``n`` output rows over threads.

    Contiguous blocks, earlier threads take the remainder — matching
    ``schedule(static)`` with default chunking.
    """
    if threads <= 0 or n <= 0:
        raise SimulationError("n and threads must be positive")
    base, rem = divmod(n, threads)
    out = []
    start = 0
    for t in range(threads):
        size = base + (1 if t < rem else 0)
        out.append(range(start, start + size))
        start += size
    return out


def partition_rows_cyclic(n: int, threads: int) -> list[range]:
    """``schedule(static, 1)`` partition: thread ``t`` gets rows t, t+p, ...

    The ablation counterpart to :func:`partition_rows`: cyclic assignment
    interleaves neighbouring rows across threads, which (for curve layouts,
    where adjacent rows share cache lines) trades private-cache reuse for
    shared-LLC overlap.
    """
    if threads <= 0 or n <= 0:
        raise SimulationError("n and threads must be positive")
    return [range(t, n, threads) for t in range(threads)]


class MulticoreTraceSim:
    """Run a naive-matmul trace through a multi-socket cache model."""

    def __init__(
        self,
        machine: MachineSpec,
        spec: MatmulTraceSpec,
        threads: int = 1,
        sockets_used: int = 1,
        cols_per_chunk: int = 64,
        schedule: str = "static",
        workers: int | None = None,
        fault_plan: FaultPlan | None = None,
        hang_timeout_s: float | None = None,
        on_failure: str = "raise",
        trace_cache: str | None = None,
    ):
        if schedule not in ("static", "cyclic"):
            raise SimulationError(
                f"schedule must be 'static' or 'cyclic', got {schedule!r}"
            )
        if workers is not None and workers < 1:
            raise SimulationError(f"workers must be >= 1, got {workers}")
        self.machine = machine
        self.spec = spec
        self.placement = ThreadPlacement.pack(machine, threads, sockets_used)
        self.cols_per_chunk = cols_per_chunk
        self.schedule = schedule
        self.workers = workers
        # Root of the content-addressed trace-IR cache
        # (:mod:`repro.trace.ir`).  Each thread's stream memory-maps its
        # shard when the cache holds it and builds it while replaying it
        # when not, so a later run maps it instead of regenerating the
        # trace — bit-identical results, shared read-only pages.
        self.trace_cache = trace_cache
        self.fault_plan = fault_plan
        self.hang_timeout_s = hang_timeout_s
        self.on_failure = validate_on_failure(on_failure)
        cores_needed = [0] * sockets_used
        for s, c in self.placement.assignments:
            cores_needed[s] = max(cores_needed[s], c + 1)
        self.sockets = [
            SocketSim(machine, n_cores=cores_needed[s])
            for s in range(sockets_used)
        ]

    def _thread_rows(self, rows: list[int] | None) -> list[list[int]]:
        """Per-thread output-row lists under the configured schedule."""
        n = self.spec.n
        row_space = list(range(n)) if rows is None else list(rows)
        partition = (
            partition_rows if self.schedule == "static" else partition_rows_cyclic
        )
        parts = partition(len(row_space), self.placement.threads)
        return [[row_space[i] for i in part] for part in parts]

    def run(self, rows: list[int] | None = None) -> HierarchyResult:
        """Simulate; ``rows`` restricts the sampled output rows (paper's
        few-rows device) — they are partitioned over threads like a full
        run's row space would be.

        With ``workers`` set, the private-cache phase runs on the process
        pool and the shared-L3 replay overlaps it; the result — and the
        post-run state of every simulated cache — is bit-identical to an
        in-process run.  A worker crash or hang raises the matching typed
        error (``on_failure="raise"``) or, with ``on_failure="serial"``,
        restores the pre-run cache state and redoes the pass in-process.
        """
        thread_rows = self._thread_rows(rows)
        with obs.span(
            "sim.multicore.run",
            n=self.spec.n,
            threads=self.placement.threads,
            schedule=self.schedule,
            workers=self.workers or 0,
        ):
            checkpoint = (
                self._state_snapshot()
                if self.workers is not None and self.on_failure == "serial"
                else None
            )
            try:
                self._pass(thread_rows, self.workers)
            except SimulationError as exc:
                if checkpoint is None:
                    raise
                warn_degraded("MulticoreTraceSim", str(exc))
                obs.count("sim.degradations")
                self._load_state(checkpoint)
                self._pass(thread_rows, None)
            return self.result()

    def _pass(self, thread_rows: list[list[int]], workers: int | None) -> None:
        """One :func:`run_parallel` pass over fresh shards.

        With a trace cache this only looks up each thread's entry — the
        streams build the misses — and opening the cache sweeps stale
        tmp files (a failed pool pass's too) before any stream writes.
        """
        shards = trace_shards(
            "matmul",
            [matmul_trace_params(self.spec, rows, self.cols_per_chunk)
             for rows in thread_rows],
            self.machine.l1.line_bytes,
            self.trace_cache,
        )
        run_parallel(
            self,
            shards,
            workers=workers,
            fault_plan=self.fault_plan,
            hang_timeout_s=self.hang_timeout_s,
        )

    def _state_snapshot(self) -> list[dict]:
        """Complete picklable state of every simulated cache.

        Taken before a pool pass when ``on_failure="serial"``: a failed
        pass may have partially mutated the shared L3s (miss chunks
        replay as they arrive), so degradation must rewind to this
        snapshot before redoing the pass in-process.
        """
        return [
            {
                "cores": [core.state_snapshot() for core in s.cores],
                "l3": s.l3.state_snapshot(),
                "dram_lines": s.dram_lines,
            }
            for s in self.sockets
        ]

    def _load_state(self, snapshot: list[dict]) -> None:
        """Restore a :meth:`_state_snapshot`."""
        for s, snap in zip(self.sockets, snapshot):
            for core, core_snap in zip(s.cores, snap["cores"]):
                core.load_state(core_snap)
            s.l3.load_state(snap["l3"])
            s.dram_lines = snap["dram_lines"]

    def result(self) -> HierarchyResult:
        """Statistics aggregated over all sockets (fresh copies)."""
        from repro.sim.cache import CacheStats

        agg = HierarchyResult(
            l1=CacheStats(), l2=CacheStats(), l3=CacheStats(),
            dram_lines=0, dram_writeback_lines=0,
            line_bytes=self.machine.l3.line_bytes,
        )
        for s in self.sockets:
            r = s.result()
            agg.l1.merge(r.l1)
            agg.l2.merge(r.l2)
            agg.l3.merge(r.l3)
            agg.dram_lines += r.dram_lines
            agg.dram_writeback_lines += r.dram_writeback_lines
        return agg

    def reset(self) -> None:
        for s in self.sockets:
            s.reset()
