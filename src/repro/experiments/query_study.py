"""Chunked-store query study: utilization and speedup per ordering.

Ports the methodology of the actual-currents
``benchmark_spatial_ordering.py`` study to this repo's simulators: the
same seeded spatial query workloads (bounding boxes, elongated ranges,
k-NN candidate scans) run against the same store laid out row-major,
Morton and Hilbert, and three layers of metrics are compared:

* **Store I/O** (layout-level, closed form) — each query's touched
  chunk positions are coalesced into aligned ``fetch_chunks``-sized
  units (the store's read granularity: a shard, a disk block, an S3
  range request).  Chunk utilization is useful bytes over fetched
  bytes; sequential runs over fetched units give the seek count; the
  I/O time model is ``seeks * seek_s + fetched_bytes / bandwidth``.
  This is where the related work's 40%→85% utilization and 2–50x
  speedup ordering (Hilbert ≥ Morton > row-major) reproduces.
* **Chunk-cache simulation** — the query line streams replay through an
  exact/fast LRU cache whose line size *is* the chunk size, capturing
  cross-query reuse: misses are chunk fetches that the store's RAM
  cache could not serve.  :class:`~repro.sim.locality.LocalityMeter`
  rides the same stream (transparently) for demand-level utilization
  and run lengths.
* **Energy** — the calibrated power model
  (:func:`~repro.sim.energy.power_breakdown`) is attached to the I/O
  phase: DRAM traffic is the cache's miss bytes, and the serving core
  is memory-bound for the duration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import obs
from repro.errors import ExperimentError
from repro.sim.config import CacheSpec, MachineSpec, SANDY_BRIDGE_E5_2670
from repro.sim.energy import EnergyBreakdown, power_breakdown
from repro.sim.fastcache import make_cache
from repro.sim.locality import LocalityMeter, run_lengths
from repro.trace.ir import lower_chunks
from repro.trace.query_trace import (
    QUERY_KINDS,
    QueryStoreSpec,
    generate_queries,
    query_access_stream,
)

__all__ = [
    "QueryWorkloadResult",
    "QueryStudy",
    "run_query_study",
    "render_query_table",
]

#: Store I/O model defaults: a seek-heavy medium (object store / HDD
#: class) where run coalescing pays — the regime of the related work.
DEFAULT_SEEK_S = 1e-4
DEFAULT_STORE_GBPS = 0.5


@dataclass(frozen=True)
class QueryWorkloadResult:
    """One (workload, ordering) cell of the study."""

    workload: str
    ordering: str
    n_queries: int
    chunks_per_query: float
    #: Store-level chunk utilization: useful bytes / fetched bytes after
    #: coalescing into aligned fetch units.
    utilization: float
    #: Mean sequential run length over fetched store units, per query.
    mean_run_chunks: float
    seeks_per_query: float
    fetched_bytes: int
    useful_bytes: int
    io_seconds: float
    #: Chunk-cache leg: demand fetches the store cache could not serve.
    cache_miss_rate: float
    dram_bytes: int
    energy: EnergyBreakdown
    #: Demand-stream metrics from the LocalityMeter (line granularity).
    stream: dict = field(default_factory=dict)

    @property
    def energy_j(self) -> float:
        return self.energy.total_j


@dataclass(frozen=True)
class QueryStudy:
    """All cells plus the parameters that produced them."""

    grid_side: int
    tile_side: int
    elem_bytes: int
    fetch_chunks: int
    n_queries: int
    seed: int
    results: dict[tuple[str, str], QueryWorkloadResult]
    orderings: tuple[str, ...]
    workloads: tuple[str, ...]

    def cell(self, workload: str, ordering: str) -> QueryWorkloadResult:
        return self.results[(workload, ordering)]

    def speedup(self, workload: str, ordering: str, baseline: str = "rm") -> float:
        """I/O-time speedup of ``ordering`` over ``baseline``."""
        base = self.results[(workload, baseline)].io_seconds
        mine = self.results[(workload, ordering)].io_seconds
        return base / mine if mine else float("inf")

    def summary(self) -> str:
        return render_query_table(self)


def _store_io(
    positions_per_query: list[np.ndarray],
    useful_per_query: list[int],
    chunk_bytes: int,
    fetch_chunks: int,
    seek_s: float,
    store_gbps: float,
) -> dict:
    """Closed-form store I/O metrics for one (workload, ordering) cell.

    Each query's touched chunk positions collapse to aligned
    ``fetch_chunks`` units; consecutive units coalesce into one
    sequential read (one seek).  Fetched bytes count whole units — the
    waste that depresses utilization when touched chunks scatter.
    """
    total_useful = 0
    total_fetched = 0
    total_seeks = 0
    total_run_units = 0
    total_runs = 0
    for positions, useful in zip(positions_per_query, useful_per_query):
        units = np.unique(positions // np.uint64(fetch_chunks))
        runs = run_lengths(units)
        total_useful += useful
        total_fetched += int(units.size) * fetch_chunks * chunk_bytes
        total_seeks += int(runs.size)
        total_run_units += int(units.size)
        total_runs += int(runs.size)
    io_seconds = total_seeks * seek_s + total_fetched / (store_gbps * 1e9)
    return {
        "useful_bytes": total_useful,
        "fetched_bytes": total_fetched,
        "utilization": total_useful / total_fetched if total_fetched else 0.0,
        "seeks": total_seeks,
        "mean_run_chunks": (total_run_units / total_runs * fetch_chunks)
        if total_runs else 0.0,
        "io_seconds": io_seconds,
    }


def _cache_geometry(store_bytes: int, chunk_bytes: int, assoc: int, ratio: int) -> CacheSpec:
    """Largest valid chunk-granular cache at ~``store_bytes / ratio``."""
    want_lines = max(assoc, store_bytes // ratio // chunk_bytes)
    sets = 1
    while sets * 2 * assoc <= want_lines:
        sets *= 2
    return CacheSpec("chunk-cache", sets * assoc * chunk_bytes, chunk_bytes, assoc)


def run_query_study(
    grid_side: int = 32,
    tile_side: int = 8,
    elem_bytes: int = 8,
    orderings: Sequence[str] = ("rm", "mo", "ho"),
    workloads: Sequence[str] = QUERY_KINDS,
    n_queries: int = 64,
    seed: int = 0,
    fetch_chunks: int = 4,
    cache_ratio: int = 8,
    assoc: int = 8,
    backend: str = "auto",
    seek_s: float = DEFAULT_SEEK_S,
    store_gbps: float = DEFAULT_STORE_GBPS,
    machine: MachineSpec = SANDY_BRIDGE_E5_2670,
    freq_ghz: float = 2.6,
) -> QueryStudy:
    """Run every workload over every ordering of the same store.

    The queries are drawn once per workload in point space (seeded,
    NumPy-version-proof), so each ordering serves the *identical*
    spatial request stream; only chunk placement differs.  Deterministic
    end to end — the golden suite pins a small instance.
    """
    from repro.sim.backends import resolve_backend

    if n_queries <= 0:
        raise ExperimentError(f"n_queries must be positive, got {n_queries}")
    if fetch_chunks <= 0:
        raise ExperimentError(f"fetch_chunks must be positive, got {fetch_chunks}")
    if cache_ratio <= 0:
        raise ExperimentError(f"cache_ratio must be positive, got {cache_ratio}")
    if seek_s < 0 or store_gbps <= 0:
        raise ExperimentError("seek_s must be >= 0 and store_gbps > 0")
    for w in workloads:
        if w not in QUERY_KINDS:
            raise ExperimentError(
                f"unknown workload {w!r}; available: {QUERY_KINDS}"
            )
    backend = resolve_backend(backend)
    results: dict[tuple[str, str], QueryWorkloadResult] = {}
    with obs.span(
        "study.query", grid=grid_side, tile=tile_side,
        orderings=list(orderings), workloads=list(workloads),
        queries=n_queries, backend=backend,
    ):
        for workload in workloads:
            for ordering in orderings:
                spec = QueryStoreSpec(
                    grid_side=grid_side, tile_side=tile_side,
                    elem_bytes=elem_bytes, ordering=ordering,
                )
                queries = generate_queries(spec, workload, n_queries, seed=seed)
                io = _store_io(
                    [q.positions for q in queries],
                    [q.useful_bytes for q in queries],
                    spec.chunk_bytes, fetch_chunks, seek_s, store_gbps,
                )

                # Chunk-cache leg: line size == chunk size, so misses are
                # chunk fetches; the meter rides the stream untouched.
                cache_spec = _cache_geometry(
                    spec.store_bytes, spec.chunk_bytes, assoc, cache_ratio
                )
                cache = make_cache(cache_spec, backend=backend)
                meter = LocalityMeter(
                    line_bytes=64, chunk_bytes=spec.chunk_bytes
                )
                for segment in lower_chunks(
                    meter.wrap(query_access_stream(spec, queries)),
                    cache_spec.line_bytes,
                ):
                    cache.access_lines(*segment)
                stats = cache.stats
                dram_bytes = stats.misses * spec.chunk_bytes

                # Energy: memory-bound serving core for the I/O duration.
                demand_gbps = (
                    dram_bytes / io["io_seconds"] / 1e9
                    if io["io_seconds"] else 0.0
                )
                power = power_breakdown(
                    machine, freq_ghz, threads=1, sockets_used=1,
                    compute_fraction=0.05, demand_gbps=demand_gbps,
                )
                energy = power.energies(io["io_seconds"])

                results[(workload, ordering)] = QueryWorkloadResult(
                    workload=workload,
                    ordering=ordering,
                    n_queries=n_queries,
                    chunks_per_query=float(
                        np.mean([q.n_chunks for q in queries])
                    ),
                    utilization=io["utilization"],
                    mean_run_chunks=io["mean_run_chunks"],
                    seeks_per_query=io["seeks"] / n_queries,
                    fetched_bytes=io["fetched_bytes"],
                    useful_bytes=io["useful_bytes"],
                    io_seconds=io["io_seconds"],
                    cache_miss_rate=stats.miss_rate,
                    dram_bytes=dram_bytes,
                    energy=energy,
                    stream=meter.snapshot(),
                )
                obs.count("query.cells_done", workload=workload, ordering=ordering)
    return QueryStudy(
        grid_side=grid_side, tile_side=tile_side, elem_bytes=elem_bytes,
        fetch_chunks=fetch_chunks, n_queries=n_queries, seed=seed,
        results=results, orderings=tuple(orderings), workloads=tuple(workloads),
    )


def render_query_table(study: QueryStudy) -> str:
    """The utilization/speedup comparison table, one row per cell."""
    header = (
        f"{'workload':>8s} {'order':>5s} {'chunks/q':>8s} {'util':>6s} "
        f"{'run':>6s} {'seeks/q':>7s} {'io [ms]':>8s} {'xRM':>6s} "
        f"{'miss%':>6s} {'E [J]':>8s}"
    )
    lines = [header]
    baseline = "rm" if "rm" in study.orderings else study.orderings[0]
    for workload in study.workloads:
        for ordering in study.orderings:
            r = study.cell(workload, ordering)
            lines.append(
                f"{workload:>8s} {ordering.upper():>5s} "
                f"{r.chunks_per_query:8.1f} {r.utilization:6.1%} "
                f"{r.mean_run_chunks:6.1f} {r.seeks_per_query:7.1f} "
                f"{r.io_seconds * 1e3:8.2f} "
                f"{study.speedup(workload, ordering, baseline):6.2f} "
                f"{r.cache_miss_rate:6.1%} {r.energy_j:8.2f}"
            )
        lines.append("")
    return "\n".join(lines).rstrip()
