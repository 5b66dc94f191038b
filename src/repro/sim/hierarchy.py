"""Multi-level cache hierarchies: private L1/L2 per core, shared L3.

:class:`CoreHierarchy` chains one core's private levels; :class:`SocketSim`
owns one shared L3 and the private hierarchies of the socket's cores.
Misses of each level feed the next (write-allocate; writeback traffic is
accounted as bandwidth, not re-simulated as demand accesses — the naive
matmul workload is read-dominated, with C rows written once and disjoint
per thread, so coherence and writeback interference are negligible by
construction; this simplification is recorded in DESIGN.md).

Every level takes line segments — ``(lines, is_write, tags)`` already
lowered from byte addresses at the L1's line size
(:func:`repro.trace.ir.lower_chunks`).  Thread interleaving at the shared
L3 is chunk-granular round-robin: each call delivers one thread's segment
of L2 misses.  At the segment sizes the trace generators emit (a few
thousand lines) this approximates fine-grained interleaving well for
capacity behaviour, which is the effect under study.

The simulation splits into two phases that :mod:`repro.sim.parallel`
runs as one loop, in-process or over pool workers:

* **private phase** — :meth:`CoreHierarchy.access_lines` runs one core's
  segment through its own L1/L2 and returns the L2 miss stream.  Cores
  are independent, so this phase parallelizes perfectly.
* **shared phase** — :meth:`SocketSim.absorb_miss_stream` replays an
  already-computed miss stream into the socket's L3.  Only the order of
  these calls matters; replaying per-segment miss streams in the
  round-robin order reproduces the serial L3 stream exactly.

:meth:`CoreHierarchy.state_snapshot` / :meth:`CoreHierarchy.load_state`
carry a core's private-cache contents and statistics across process
boundaries, so a run split between parent and workers stays bit-identical
to the serial simulation — including runs that carry state across multiple
``run()`` calls (the calibration warm-up pattern).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.sim.cache import CacheStats
from repro.sim.config import MachineSpec
from repro.sim.fastcache import make_cache

__all__ = ["CoreHierarchy", "SocketSim", "HierarchyResult"]


@dataclass
class HierarchyResult:
    """Per-level statistics snapshot after a simulation run."""

    l1: CacheStats
    l2: CacheStats
    l3: CacheStats
    dram_lines: int
    dram_writeback_lines: int
    line_bytes: int = 64

    @property
    def dram_bytes(self) -> int:
        """Demand bytes fetched from memory (line-granular)."""
        return self.dram_lines * self.line_bytes

    @property
    def llc_misses(self) -> int:
        """Demand misses at the last level (reads + writes)."""
        return self.l3.misses


class CoreHierarchy:
    """One core's private L1 and L2, each on the path
    :func:`~repro.sim.fastcache.make_cache` picks for this host — in a
    pool worker too, which builds its own levels."""

    def __init__(self, machine: MachineSpec):
        self.l1 = make_cache(machine.l1)
        self.l2 = make_cache(machine.l2)

    def access_lines(
        self, lines: np.ndarray, is_write: np.ndarray, tags: np.ndarray
    ):
        """Feed a line segment; returns the L2 miss stream
        ``(lines, is_write, tags)``."""
        miss_lines, w, t = self.l1.access_lines(lines, is_write, tags)
        if len(miss_lines) == 0:
            return miss_lines, w, t
        return self.l2.access_lines(miss_lines, w, t)

    def state_snapshot(self) -> dict:
        """Picklable contents + statistics of both private levels."""
        return {"l1": self.l1.state_snapshot(), "l2": self.l2.state_snapshot()}

    def load_state(self, snapshot: dict) -> None:
        """Restore a :meth:`state_snapshot` (cache kinds must match)."""
        self.l1.load_state(snapshot["l1"])
        self.l2.load_state(snapshot["l2"])

    def reset(self) -> None:
        self.l1.reset()
        self.l2.reset()


class SocketSim:
    """One socket: ``n_cores`` private hierarchies sharing an L3.

    Feed per-thread segments with :meth:`access_lines`; the shared L3
    sees them in call order (the caller round-robins threads).
    """

    def __init__(self, machine: MachineSpec, n_cores: int | None = None):
        self.machine = machine
        self.n_cores = n_cores if n_cores is not None else machine.cores_per_socket
        if not 1 <= self.n_cores <= machine.cores_per_socket:
            raise SimulationError(
                f"n_cores {self.n_cores} exceeds socket capacity "
                f"{machine.cores_per_socket}"
            )
        self.cores = [CoreHierarchy(machine) for _ in range(self.n_cores)]
        # With the C library the L3 replay of sim.parallel's shared phase
        # (absorb_miss_stream -> l3.access_lines) runs the C kernel too —
        # the serial merge loop stops being the bottleneck.
        self.l3 = make_cache(machine.l3)
        self.dram_lines = 0

    def access_lines(
        self, core: int, lines: np.ndarray, is_write: np.ndarray,
        tags: np.ndarray,
    ) -> None:
        """Run one thread's segment through its private levels and the L3."""
        if not 0 <= core < self.n_cores:
            raise SimulationError(f"core {core} out of range 0..{self.n_cores - 1}")
        lines, w, t = self.cores[core].access_lines(lines, is_write, tags)
        self.absorb_miss_stream(lines, w, t)

    def absorb_miss_stream(
        self, lines: np.ndarray, is_write: np.ndarray, tags: np.ndarray
    ) -> None:
        """Shared phase: replay one already-computed L2 miss chunk into the
        L3.  Feeding chunks in the serial round-robin order reproduces the
        serial simulation exactly (the L3 sees the identical line stream)."""
        if len(lines) == 0:
            return
        miss_lines, _, _ = self.l3.access_lines(lines, is_write, tags)
        self.dram_lines += len(miss_lines)

    def result(self) -> HierarchyResult:
        """Aggregate per-level statistics (private levels summed)."""
        l1 = CacheStats()
        l2 = CacheStats()
        for core in self.cores:
            l1.merge(core.l1.stats)
            l2.merge(core.l2.stats)
        return HierarchyResult(
            l1=l1,
            l2=l2,
            l3=self.l3.stats,
            dram_lines=self.dram_lines,
            dram_writeback_lines=self.l3.stats.writebacks,
            line_bytes=self.machine.l3.line_bytes,
        )

    def reset(self) -> None:
        for core in self.cores:
            core.reset()
        self.l3.reset()
        self.dram_lines = 0
