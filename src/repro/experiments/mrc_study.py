"""Miss-ratio curves and conflict-miss isolation (Mattson analysis).

Mattson's stack algorithm yields, from one pass over a trace, the miss
count of **every** fully-associative LRU capacity — the pure *capacity*
miss curve.  Running the same trace through the exact set-associative
simulator and subtracting isolates *conflict* misses.

The result explains a mechanism the calibrated model's RM plateau hides:
at the paper's power-of-two matrix sizes, row-major's column walk strides
by exactly ``8 n`` bytes, so a column's lines cycle through a handful of
cache sets — the bulk of RM's out-of-cache misses at realistic
associativities are **conflict** misses a fully-associative cache would
not suffer (its capacity curve is nearly flat!).  The curve layouts have
no long constant stride and show almost no conflict component: Morton's
advantage on 2^n matrices is as much about *set-index entropy* as about
footprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from repro import obs
from repro.errors import ExperimentError
from repro.robust import StudyCheckpoint, fan_out, validate_on_failure
from repro.sim.fastcache import make_cache
from repro.sim.config import CacheSpec
from repro.sim.stackdist import miss_curve, reuse_distances
from repro.trace.ir import TraceShard, matmul_trace_params, trace_shards
from repro.trace.matmul_trace import MatmulTraceSpec

__all__ = ["MissRatioCurve", "run_mrc_study", "render_mrc"]


@dataclass(frozen=True)
class MissRatioCurve:
    """One scheme's miss decomposition at each capacity ratio.

    ``mpi_capacity`` is the fully-associative (Mattson) misses per inner
    iteration; ``mpi_total`` the exact set-associative count; the
    difference is the conflict component.
    """

    scheme: str
    n: int
    assoc: int
    mpi_capacity: dict[float, float]
    mpi_total: dict[float, float]

    def conflict_share(self, u: float) -> float:
        """Fraction of set-associative misses that are conflict misses."""
        total = self.mpi_total[u]
        if total == 0:
            return 0.0
        return max(0.0, total - self.mpi_capacity[u]) / total


def _scheme_curve(
    n: int,
    shards: dict[str, TraceShard],
    iterations: int,
    caps: dict[float, int],
    line_bytes: int,
    assoc: int,
    scheme: str,
) -> MissRatioCurve:
    """One scheme's full decomposition (pool task).

    The scheme's shard is read once — generated, memory-mapped, or built
    into the trace cache while it is read — and its lowered segments are
    held for the Mattson pass over all their lines and the exact replay
    at every capacity.
    """
    with obs.span(
        "study.mrc.scheme", scheme=scheme, n=n, capacities=len(caps),
    ):
        segments = list(shards[scheme].segments())
        dists = reuse_distances(np.concatenate([seg[0] for seg in segments]))
        capacity_misses = miss_curve(dists, caps.values())
        del dists
        mpi_cap = {u: capacity_misses[c] / iterations for u, c in caps.items()}
        mpi_tot = {}
        for u, cap_lines in caps.items():
            cache = make_cache(
                CacheSpec("mrc", cap_lines * line_bytes, line_bytes, assoc)
            )
            for seg in segments:
                cache.access_lines(*seg)
            mpi_tot[u] = cache.stats.misses / iterations
        obs.count("study.schemes_done", study="mrc")
        return MissRatioCurve(
            scheme=scheme, n=n, assoc=assoc,
            mpi_capacity=mpi_cap, mpi_total=mpi_tot,
        )


def _curve_to_payload(curve: MissRatioCurve) -> dict:
    """JSON-safe journal payload (float dict keys become pair lists)."""
    return {
        "scheme": curve.scheme,
        "n": curve.n,
        "assoc": curve.assoc,
        "mpi_capacity": [[u, v] for u, v in curve.mpi_capacity.items()],
        "mpi_total": [[u, v] for u, v in curve.mpi_total.items()],
    }


def _curve_from_payload(payload: dict) -> MissRatioCurve:
    return MissRatioCurve(
        scheme=payload["scheme"],
        n=payload["n"],
        assoc=payload["assoc"],
        mpi_capacity={float(u): v for u, v in payload["mpi_capacity"]},
        mpi_total={float(u): v for u, v in payload["mpi_total"]},
    )


def run_mrc_study(
    n: int = 64,
    schemes: tuple[str, ...] = ("rm", "mo", "ho"),
    u_values: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0),
    sample_rows: int = 2,
    line_bytes: int = 64,
    assoc: int = 16,
    workers: int | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    on_failure: str = "raise",
    trace_cache: str | None = None,
) -> list[MissRatioCurve]:
    """Decompose the naive kernel's misses per scheme and capacity ratio.

    For each ``u`` the line capacity is ``3 * 8 * n^2 / u / line_bytes``
    (rounded to a valid set-associative geometry for the exact run);
    iterations are ``sample_rows * n^2``.

    ``workers`` fans the per-scheme decompositions (independent traces and
    caches) out to the process pool (:func:`repro.robust.fan_out`); curves
    and metrics counters are bit-identical to the serial loop, which
    remains the ``workers=None`` path.  There is no hang timeout.  A pool
    failure raises :class:`~repro.errors.WorkerCrashError` unless
    ``on_failure="serial"``, which recomputes every scheme not yet
    finished in-process with a warning.

    ``trace_cache`` names a trace-IR cache directory
    (:mod:`repro.trace.ir`).  Each scheme reads its trace once through
    one :class:`~repro.trace.ir.TraceShard`
    (:func:`~repro.trace.ir.trace_shards`, called here before the
    fan-out starts): without a cache the trace is generated; with one, a
    missing entry is built while the scheme reads it and later runs
    memory-map it — bit-identical curves.  Not part of the checkpoint
    identity.

    ``checkpoint``/``resume`` journal each completed scheme's curve
    (:class:`~repro.robust.StudyCheckpoint`): a restarted run skips the
    journaled schemes and returns curves identical to an uninterrupted
    run.  A journal written with different parameters refuses to resume
    (:class:`~repro.errors.CheckpointError`).
    """
    validate_on_failure(on_failure)
    mid = n // 2
    if sample_rows < 1 or mid + sample_rows > n:
        raise ExperimentError(
            f"sample_rows must be in [1, {n - mid}] for n={n} (the sampled "
            f"rows start at n//2 = {mid}), got {sample_rows}"
        )
    working_set = 3 * 8 * n * n
    rows = list(range(mid, mid + sample_rows))
    iterations = sample_rows * n * n

    # Round each capacity down to a power-of-two set count.
    caps = {}
    for u in u_values:
        want_lines = max(assoc, int(working_set / u / line_bytes))
        sets = 1
        while sets * 2 * assoc <= want_lines:
            sets *= 2
        caps[u] = sets * assoc

    curves: dict[str, MissRatioCurve] = {}
    ckpt = None
    if checkpoint is not None:
        params = {
            "n": n,
            "schemes": list(schemes),
            "u_values": list(u_values),
            "sample_rows": sample_rows,
            "line_bytes": line_bytes,
            "assoc": assoc,
        }
        ckpt = StudyCheckpoint(checkpoint, "mrc", params, resume=resume)
        for scheme in schemes:
            if ckpt.done(scheme):
                curves[scheme] = _curve_from_payload(ckpt.get(scheme))

    def finish(scheme: str, curve: MissRatioCurve) -> None:
        curves[scheme] = curve
        if ckpt is not None:
            ckpt.record(scheme, _curve_to_payload(curve))

    todo = [s for s in schemes if s not in curves]
    with obs.span(
        "study.mrc", n=n, schemes=list(schemes), workers=workers or 0,
        resumed=len(schemes) - len(todo),
    ):
        shards = dict(zip(todo, trace_shards(
            "matmul",
            [matmul_trace_params(MatmulTraceSpec.uniform(n, s), rows)
             for s in todo],
            line_bytes, trace_cache,
        )))
        task = partial(
            _scheme_curve, n, shards, iterations, caps, line_bytes, assoc
        )
        with fan_out("mrc", task, todo, workers, on_failure) as results:
            for scheme, curve in results:
                finish(scheme, curve)
    return [curves[s] for s in schemes]


def render_mrc(curves: list[MissRatioCurve]) -> str:
    """Text table: capacity vs total misses and the conflict share."""
    if not curves:
        raise ExperimentError("no curves to render")
    us = sorted(curves[0].mpi_capacity)
    header = f"{'u':>6s} " + " ".join(
        f"{c.scheme.upper() + ' cap':>9s} {c.scheme.upper() + ' tot':>9s} "
        f"{'cnfl%':>6s}"
        for c in curves
    )
    lines = [header]
    for u in us:
        cells = []
        for c in curves:
            cells.append(
                f"{c.mpi_capacity[u]:9.4f} {c.mpi_total[u]:9.4f} "
                f"{c.conflict_share(u):6.0%}"
            )
        lines.append(f"{u:6.1f} " + " ".join(cells))
    return "\n".join(lines)
