"""Cachegrind-style per-source miss attribution.

Stands in for "the cachegrind module of the Valgrind instrumentation
framework [which] allows matching of memory hierarchy effects to specific
locations in the source program" (Section IV-A).  Traces are tagged per
source operand (the A, B and C matrices); the report groups D1/LL
statistics by tag and renders a ``cg_annotate``-like text table.

Cachegrind's model is two-level (D1 + LL); :class:`CachegrindSim` therefore
drives only the first and last level of the machine spec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.config import MachineSpec
from repro.sim.fastcache import make_cache
from repro.trace.events import TAG_NAMES, TraceChunk

__all__ = ["TagReport", "CachegrindReport", "CachegrindSim"]


@dataclass(frozen=True)
class TagReport:
    """Counters of one source tag (one matrix / source location)."""

    tag: int
    name: str
    accesses: int
    d1_read_misses: int
    d1_write_misses: int
    ll_read_misses: int
    ll_write_misses: int

    @property
    def ll_misses(self) -> int:
        return self.ll_read_misses + self.ll_write_misses


@dataclass(frozen=True)
class CachegrindReport:
    """Whole-run cachegrind output."""

    refs: int
    d1_misses: int
    ll_misses: int
    ll_read_misses: int
    per_tag: tuple[TagReport, ...]

    def annotate(self) -> str:
        """Render a cg_annotate-style table."""
        lines = [
            f"refs:       {self.refs:,}",
            f"D1  misses: {self.d1_misses:,}  ({self.d1_misses / max(self.refs, 1):.4%})",
            f"LL  misses: {self.ll_misses:,}  ({self.ll_misses / max(self.refs, 1):.4%})",
            "",
            f"{'source':>8s} {'refs':>14s} {'D1mr':>12s} {'D1mw':>10s} {'LLmr':>12s} {'LLmw':>10s}",
        ]
        for t in self.per_tag:
            lines.append(
                f"{t.name:>8s} {t.accesses:14,d} {t.d1_read_misses:12,d} "
                f"{t.d1_write_misses:10,d} {t.ll_read_misses:12,d} {t.ll_write_misses:10,d}"
            )
        return "\n".join(lines)


class CachegrindSim:
    """Two-level (D1 + LL) trace-driven instrumentation.

    ``prefetch`` enables the LL next-line prefetcher — real cachegrind has
    none (and neither does the paper's baseline), but the option lets the
    study quantify how much a hardware prefetcher narrows the HO/MO gap.
    """

    def __init__(
        self,
        machine: MachineSpec,
        prefetch: str = "none",
        backend: str = "auto",
    ):
        self.d1 = make_cache(machine.l1, backend=backend)
        self.ll = make_cache(machine.l3, prefetch=prefetch, backend=backend)

    def consume(self, chunk: TraceChunk) -> None:
        """Feed one trace chunk through D1 then LL."""
        lines, w, t = self.d1.access_chunk(chunk)
        if len(lines):
            self.ll.access_lines(lines, w, t)

    def consume_lines(
        self, lines: np.ndarray, is_write: np.ndarray, tags: np.ndarray
    ) -> None:
        """Feed one pre-lowered line segment through D1 then LL.

        The trace-IR ingestion path: bit-identical to :meth:`consume` on
        the chunk the segment was lowered from, minus the address→line
        shift.
        """
        miss_lines, w, t = self.d1.access_lines(lines, is_write, tags)
        if len(miss_lines):
            self.ll.access_lines(miss_lines, w, t)

    def run(self, trace) -> "CachegrindReport":
        """Consume an iterable of chunks and report."""
        for chunk in trace:
            self.consume(chunk)
        return self.report()

    def run_ir(self, reader) -> "CachegrindReport":
        """Stream a :class:`~repro.trace.ir.TraceIRReader` and report.

        Decodes one segment at a time (bounded-window), so the trace
        never materializes in full.  The reader's lowering granularity
        must match the simulated line size.
        """
        from repro.errors import TraceError

        if reader.line_bytes != self.d1.spec.line_bytes:
            raise TraceError(
                f"trace IR lowered at {reader.line_bytes} B lines cannot "
                f"drive a {self.d1.spec.line_bytes} B-line cache"
            )
        for lines, w, t in reader.segments():
            self.consume_lines(lines, w, t)
        return self.report()

    def report(self) -> CachegrindReport:
        d1, ll = self.d1.stats, self.ll.stats
        tags = sorted(
            set(np.nonzero(d1.tag_accesses)[0].tolist())
        )
        per_tag = tuple(
            TagReport(
                tag=int(tag),
                name=TAG_NAMES.get(int(tag), f"tag{tag}"),
                accesses=int(d1.tag_accesses[tag]),
                d1_read_misses=int(d1.tag_read_misses[tag]),
                d1_write_misses=int(d1.tag_write_misses[tag]),
                ll_read_misses=int(ll.tag_read_misses[tag]),
                ll_write_misses=int(ll.tag_write_misses[tag]),
            )
            for tag in tags
        )
        return CachegrindReport(
            refs=d1.accesses,
            d1_misses=d1.misses,
            ll_misses=ll.misses,
            ll_read_misses=ll.read_misses,
            per_tag=per_tag,
        )

    def reset(self) -> None:
        self.d1.reset()
        self.ll.reset()
