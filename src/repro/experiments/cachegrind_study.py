"""Section IV-A's cachegrind experiment, at scaled size.

The paper: "Performing this additional experiment for 5 rows near the
middle of the C matrix in a size 12 problem resulted in a total of
16.78e6 last-level data read misses for HO compared to 17.06e6 for MO" —
i.e. Hilbert's locality is measurably (if slightly) better, far too little
to amortize its index cost.

We reproduce the methodology exactly — restrict the kernel to a few output
rows near the middle, instrument with the two-level cachegrind model, count
LL data read misses per scheme — at a scaled problem/machine pair chosen to
match the paper's capacity ratio (size 12 vs 20 MB LLC gives u ~ 19; the
default scaled pair reproduces that ratio).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

from repro import obs
from repro.errors import ExperimentError
from repro.perf.cachegrind import CachegrindReport, CachegrindSim, TagReport
from repro.robust import StudyCheckpoint, fan_out, validate_on_failure
from repro.sim.config import CACHEGRIND_LIKE, MachineSpec, scaled_machine
from repro.trace.ir import TraceShard, matmul_trace_params, trace_shards
from repro.trace.matmul_trace import MatmulTraceSpec

__all__ = ["CachegrindStudyResult", "run_cachegrind_study", "PAPER_LL_READ_MISSES"]

#: The paper's measured LL data read misses (5 middle rows, size 12).
PAPER_LL_READ_MISSES = {"mo": 17.06e6, "ho": 16.78e6}


@dataclass(frozen=True)
class CachegrindStudyResult:
    """Outcome of the LL-miss comparison."""

    n: int
    rows: tuple[int, ...]
    reports: dict[str, CachegrindReport]

    def ll_read_misses(self, scheme: str) -> int:
        return self.reports[scheme].ll_read_misses

    @property
    def ho_over_mo(self) -> float:
        """The paper's headline ratio (0.984 on their platform)."""
        return self.ll_read_misses("ho") / self.ll_read_misses("mo")

    def summary(self) -> str:
        lines = [
            f"Cachegrind study (scaled): {len(self.rows)} middle rows of a "
            f"{self.n}x{self.n} problem",
        ]
        for scheme, report in sorted(self.reports.items()):
            lines.append(
                f"  {scheme.upper()}: LL data read misses = {report.ll_read_misses:,}"
            )
        if "mo" in self.reports and "ho" in self.reports:
            lines.append(f"  HO / MO ratio = {self.ho_over_mo:.3f} (paper: 0.984)")
        return "\n".join(lines)


def _study_machine(n: int, capacity_ratio: float) -> MachineSpec:
    """Miniature D1+LL machine whose LL reproduces a target capacity ratio.

    The LL size is chosen so ``3 * 8 * n^2 / LL = capacity_ratio``, rounded
    to a valid 20-way geometry; D1 is a small fixed filter (its size only
    changes which hits reach LL, not LL's capacity behaviour).
    """
    from repro.sim.config import CacheSpec

    ll_bytes = int(3 * 8 * n * n / capacity_ratio)
    # Round down to a power-of-two set count with 20 ways of 64 B lines.
    way_bytes = 64 * 20
    sets = 1
    while sets * 2 * way_bytes <= ll_bytes:
        sets *= 2
    return MachineSpec(
        name=f"cachegrind-scaled(u~{capacity_ratio:g})",
        sockets=1,
        cores_per_socket=1,
        l1=CacheSpec("D1", 512, 64, 8, latency_cycles=1),
        l2=CacheSpec("L2", 1024, 64, 8, latency_cycles=10),
        l3=CacheSpec("LL", sets * way_bytes, 64, 20, latency_cycles=35),
    )


def _scheme_report(
    machine: MachineSpec,
    n: int,
    shards: dict[str, TraceShard],
    prefetch: str,
    backend: str,
    scheme: str,
) -> CachegrindReport:
    """One scheme's full instrumentation run (pool task).

    ``backend`` rides along as a plain string so the pickled pool task
    re-resolves it in the worker process.  The trace is replayed
    straight from the scheme's shard: generated, memory-mapped, or built
    into the trace cache while it is replayed.
    """
    with obs.span(
        "study.cachegrind.scheme", scheme=scheme, n=n, backend=backend
    ):
        sim = CachegrindSim(machine, prefetch=prefetch, backend=backend)
        report = sim.run(shards[scheme].segments())
        obs.count("study.schemes_done", study="cachegrind")
        return report


def _report_from_payload(payload: dict) -> CachegrindReport:
    """Rebuild a :class:`CachegrindReport` from its journal payload."""
    return CachegrindReport(
        refs=payload["refs"],
        d1_misses=payload["d1_misses"],
        ll_misses=payload["ll_misses"],
        ll_read_misses=payload["ll_read_misses"],
        per_tag=tuple(TagReport(**t) for t in payload["per_tag"]),
    )


def run_cachegrind_study(
    n: int = 128,
    capacity_ratio: float = 19.7,
    n_rows: int = 5,
    schemes: tuple[str, ...] = ("mo", "ho"),
    machine: MachineSpec | None = None,
    prefetch: str = "none",
    backend: str = "auto",
    workers: int | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    on_failure: str = "raise",
    trace_cache: str | None = None,
) -> CachegrindStudyResult:
    """Run the study at the paper's capacity ratio.

    The paper's size-12 problem against a 20 MB LLC has ``u =
    3*8*4096^2/20MB ~ 19.7``; the default scaled pair reproduces that
    ratio with an ``n = 128`` problem against a proportionally small LL.

    ``workers`` fans the per-scheme simulations (which share no cache
    state) out to the process pool (:func:`repro.robust.fan_out`); reports
    and metrics counters are bit-identical to the serial loop, which
    remains the ``workers=None`` path.  There is no hang timeout.  A pool
    failure raises :class:`~repro.errors.WorkerCrashError` unless
    ``on_failure="serial"``, which recomputes every scheme not yet
    finished in-process with a warning.

    ``trace_cache`` names a trace-IR cache directory
    (:mod:`repro.trace.ir`).  Each scheme reads its trace through one
    :class:`~repro.trace.ir.TraceShard` (:func:`~repro.trace.ir.trace_shards`,
    called here before the fan-out starts): without a cache the trace is
    generated; with one, a missing entry is built while the scheme
    replays it and later runs memory-map it — bit-identical reports.

    ``checkpoint`` journals each completed scheme's report to an
    append-only file (:class:`~repro.robust.StudyCheckpoint`);
    ``resume=True`` replays it, skips the schemes it holds, and — because
    the journal stores the exact reports — produces output identical to
    an uninterrupted run.  Resuming against a journal written with
    different study parameters raises
    :class:`~repro.errors.CheckpointError`.
    """
    from repro.sim.backends import resolve_backend

    validate_on_failure(on_failure)
    backend = resolve_backend(backend)
    if n_rows < 1:
        raise ExperimentError("need at least one sampled row")
    machine = machine or _study_machine(n, capacity_ratio)
    mid = n // 2
    rows = tuple(range(mid - n_rows // 2, mid - n_rows // 2 + n_rows))
    if rows[0] < 0 or rows[-1] >= n:
        raise ExperimentError(f"sample rows out of range for n={n}")

    reports: dict[str, CachegrindReport] = {}
    ckpt = None
    if checkpoint is not None:
        params = {
            "n": n,
            "rows": list(rows),
            "schemes": list(schemes),
            "prefetch": prefetch,
            # The replay backend and trace input path (live generator vs
            # cached trace IR) are deliberately NOT part of the
            # checkpoint identity: both are bit-identical, so a journal
            # written under one resumes under any other.
            "machine": asdict(machine),
        }
        ckpt = StudyCheckpoint(checkpoint, "cachegrind", params, resume=resume)
        for scheme in schemes:
            if ckpt.done(scheme):
                reports[scheme] = _report_from_payload(ckpt.get(scheme))

    def finish(scheme: str, report: CachegrindReport) -> None:
        reports[scheme] = report
        if ckpt is not None:
            ckpt.record(scheme, asdict(report))

    todo = [s for s in schemes if s not in reports]
    with obs.span(
        "study.cachegrind", n=n, schemes=list(schemes), backend=backend,
        workers=workers or 0,
        resumed=len(schemes) - len(todo),
    ):
        shards = dict(zip(todo, trace_shards(
            "matmul",
            [matmul_trace_params(MatmulTraceSpec.uniform(n, s), rows)
             for s in todo],
            machine.l1.line_bytes, trace_cache,
        )))
        task = partial(_scheme_report, machine, n, shards, prefetch, backend)
        with fan_out("cachegrind", task, todo, workers, on_failure) as results:
            for scheme, report in results:
                finish(scheme, report)
    # Scheme order in the output is the caller's order regardless of
    # which schemes came from the journal.
    return CachegrindStudyResult(
        n=n, rows=rows, reports={s: reports[s] for s in schemes}
    )
