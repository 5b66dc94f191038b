"""Sharded, multi-process, disk-cached experiment sweeps.

The serial :meth:`~repro.experiments.runner.ExperimentRunner.run_grid`
walks the 216-point Table III grid in one process and keeps results only
in memory.  This module is the scale-out engine behind the tables, the
figures and the report:

* **Sharding** — sample points are partitioned into contiguous shards
  executed on a :class:`concurrent.futures.ProcessPoolExecutor` (worker
  count configurable, default ``os.cpu_count()``), with a per-shard
  timeout and retry-with-exponential-backoff.
* **On-disk cache** — results land in a content-addressed cache keyed by
  the sample point's config key *and* a stable hash of the analytic
  model's calibration parameters (:func:`calibration_fingerprint`), so a
  recalibrated model invalidates cleanly while reruns and resumed sweeps
  are served from disk.  Writes are atomic and durable (fsynced tmp
  file + ``os.replace``) and the per-entry schema is versioned.
* **Telemetry** — a JSON-lines event log (sweep/shard lifecycle,
  points/s, shard latencies, cache hit rate) plus an optional live
  stderr progress line.

Results compose through :meth:`ResultSet.merge` (idempotent adds), and a
sweep over the same model is bit-identical to the serial runner: workers
evaluate the very same :class:`PerformanceModel` arithmetic, and the
output set is assembled in input order.

The optional ``measure="sampled"`` mode re-measures every modelled run
through the paper's RAPL chain (quantized wrapping counters sampled at
10 Hz, trapezoidal integration — :mod:`repro.perf.sampling`).  The
counter reads are computed in closed form, so a sampled point costs
about as much as 20 model points (grid average).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro import obs
from repro.errors import ExperimentError, WorkerCrashError, WorkerHangError
from repro.robust.fsutil import durable_write, sweep_stale_tmp
from repro.experiments.configs import SampleConfig, full_grid
from repro.experiments.results import ResultSet, SampleResult
from repro.experiments.runner import ExperimentRunner
from repro.robust import FaultPlan, execute_fault, validate_on_failure, warn_degraded
from repro.sim.analytic import PerformanceModel

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "MEASURE_MODES",
    "SweepCache",
    "SweepEngine",
    "SweepStats",
    "SweepTelemetry",
    "calibration_fingerprint",
    "default_cache_dir",
    "evaluate_batch",
    "resolve_runner",
    "sweep_grid",
]

#: Bump when the on-disk per-entry layout changes; older entries are
#: treated as misses and rewritten.
CACHE_SCHEMA_VERSION = 1

#: Supported per-point measurement modes.
MEASURE_MODES = ("model", "sampled")

#: Shards per worker per generation — small enough to amortize IPC,
#: large enough that an uneven shard does not serialize the tail.
_SHARDS_PER_WORKER = 4


def default_cache_dir() -> Path:
    """``$XDG_CACHE_HOME``- (or ``~/.cache``-) rooted sweep cache."""
    root = os.environ.get("XDG_CACHE_HOME") or (Path.home() / ".cache")
    return Path(root) / "sfc-repro" / "sweep"


#: Evaluated lazily by the CLI so tests can point it elsewhere.
DEFAULT_CACHE_DIR = default_cache_dir()


def calibration_fingerprint(model: PerformanceModel) -> str:
    """Stable hash of everything that determines a model's predictions.

    Machine spec, per-scheme miss-curve parameters and the two overlap/
    bandwidth calibration scalars are serialized to canonical JSON and
    hashed; any recalibration — even one plateau nudged — changes the
    fingerprint and therefore the cache address of every sample point.
    """
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "machine": asdict(model.machine),
        "miss_models": {k: asdict(v) for k, v in sorted(model.miss_models.items())},
        "overlap_residual": model.overlap_residual,
        "multi_socket_bw_efficiency": model.multi_socket_bw_efficiency,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- on-disk cache -------------------------------------------------------------


class SweepCache:
    """Content-addressed result cache: one JSON file per sample point.

    Layout: ``<root>/v<schema>/<fingerprint[:16]>/<measure>/<key>.json``.
    Each entry embeds the schema version and the *full* fingerprint; a
    mismatch (or an unreadable file) is a miss, never an error.
    """

    def __init__(self, root: str | Path, fingerprint: str, measure: str = "model"):
        self.fingerprint = fingerprint
        self.dir = (
            Path(root)
            / f"v{CACHE_SCHEMA_VERSION}"
            / fingerprint[:16]
            / measure
        )
        # Remove ``.{name}.{pid}.tmp`` debris left by crashed writers.
        sweep_stale_tmp(self.dir)

    def _path(self, config: SampleConfig) -> Path:
        return self.dir / f"{config.key}.json"

    def get(self, config: SampleConfig) -> SampleResult | None:
        try:
            payload = json.loads(self._path(config).read_text())
            if (
                payload.get("schema") != CACHE_SCHEMA_VERSION
                or payload.get("fingerprint") != self.fingerprint
            ):
                return None
            result = SampleResult.from_dict(payload["result"])
        except (OSError, ValueError, KeyError):
            return None
        if result.config.key != config.key:
            return None
        return result

    def put(self, result: SampleResult) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "result": result.to_dict(),
        }
        durable_write(
            self._path(result.config), json.dumps(payload, sort_keys=True)
        )

    def get_many(
        self, configs: list[SampleConfig]
    ) -> tuple[dict[str, SampleResult], list[SampleConfig]]:
        """Split ``configs`` into cache hits and misses in one pass.

        Returns ``(hits keyed by config key, misses in input order)``.
        The batch-submission entry point of the advisor service: a
        coalesced batch consults the cache once and ships only the
        misses to an evaluation worker.
        """
        hits: dict[str, SampleResult] = {}
        misses: list[SampleConfig] = []
        for cfg in configs:
            cached = self.get(cfg)
            if cached is not None:
                hits[cfg.key] = cached
            else:
                misses.append(cfg)
        return hits, misses

    def put_many(self, results) -> None:
        """Store a batch of results (atomic per entry, like :meth:`put`)."""
        for r in results:
            self.put(r)


# -- telemetry -----------------------------------------------------------------


@dataclass
class SweepStats:
    """Aggregate counters of one sweep invocation."""

    points: int = 0
    cache_hits: int = 0
    shards: int = 0
    retries: int = 0
    resumed: int = 0
    degraded: int = 0
    seconds: float = 0.0
    workers: int = 1

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.points if self.points else 0.0

    @property
    def points_per_sec(self) -> float:
        return self.points / self.seconds if self.seconds > 0 else 0.0


class SweepTelemetry:
    """Structured progress stream: JSON-lines log + live stderr line."""

    def __init__(
        self,
        log_path: str | Path | None = None,
        progress: bool = False,
        stream=None,
    ):
        self.log_path = Path(log_path) if log_path else None
        self.progress = progress
        self.stream = stream if stream is not None else sys.stderr
        self._t0 = time.monotonic()
        self._fh = None
        if self.log_path:
            self.log_path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.log_path, "a")

    def event(self, name: str, /, **fields) -> None:
        if self._fh is None:
            return
        record = {"event": name, "elapsed_s": round(time.monotonic() - self._t0, 6)}
        record.update(fields)
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def progress_line(self, done: int, total: int, stats: SweepStats) -> None:
        if not self.progress:
            return
        elapsed = time.monotonic() - self._t0
        pps = done / elapsed if elapsed > 0 else 0.0
        pct = 100.0 * done / total if total else 100.0
        self.stream.write(
            f"\rsweep: {done}/{total} points ({pct:5.1f}%)  "
            f"{pps:10.1f} pts/s  cache hits {stats.cache_hits}"
        )
        self.stream.flush()

    def close(self) -> None:
        if self.progress:
            self.stream.write("\n")
            self.stream.flush()
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# -- worker side ---------------------------------------------------------------

_worker_state: dict = {}


def _init_worker(model: PerformanceModel, measure: str, sample_hz: float) -> None:
    _worker_state["runner"] = ExperimentRunner(model)
    _worker_state["measure"] = measure
    _worker_state["sample_hz"] = sample_hz


def _measured_result(result: SampleResult, sample_hz: float) -> SampleResult:
    """Re-measure a modelled run through the paper's RAPL chain.

    Each energy domain's modelled draw is exposed as a quantized wrapping
    counter, sampled at ``sample_hz``, unwrapped, and integrated with the
    trapezoidal rule — so swept energies carry the measurement chain's
    quantization and end effects exactly like the paper's numbers did.
    """
    from dataclasses import replace

    from repro.perf.sampling import power_from_samples, sample_rapl_counter

    duration = result.seconds

    def chain(joules: float) -> float:
        if joules <= 0:
            return joules
        power = joules / duration
        ts, raw = sample_rapl_counter(
            power, duration_s=duration, sample_hz=sample_hz
        )
        if len(ts) < 3:  # too short for a midpoint log; keep the model value
            return joules
        return power_from_samples(ts, raw).energy_j

    return replace(
        result,
        package_j=chain(result.package_j),
        pp0_j=chain(result.pp0_j),
        dram_j=chain(result.dram_j),
    )


def evaluate_batch(
    configs: list[SampleConfig],
    runner: ExperimentRunner,
    measure: str = "model",
    sample_hz: float = 10.0,
    worker: int = 0,
    step_base: int = 0,
    attempt: int = 0,
    fault_plan: FaultPlan | None = None,
) -> list[SampleResult | None]:
    """Evaluate a batch of sample points, with optional fault injection.

    The single evaluation loop shared by sweep shards (worker = shard
    index, steps count points within the shard) and the advisor
    service's worker pool (worker = pool worker id, ``step_base`` carries
    the worker's cumulative point count across batches, so a fault plan
    addresses one flat step space per worker).  Faults fire *before* the
    point is evaluated; a ``corrupt`` fault punches a ``None`` hole into
    the returned list, which consumers must detect and reject.
    """
    out: list[SampleResult | None] = []
    for i, cfg in enumerate(configs):
        fault = (
            fault_plan.fire(worker, step_base + i, attempt)
            if fault_plan
            else None
        )
        if fault is not None and fault.kind != "corrupt":
            execute_fault(fault)
        result = runner.run(cfg)
        if measure == "sampled":
            result = _measured_result(result, sample_hz)
        # A "corrupt" fault tampers with the shipped payload: the parent
        # must notice the hole and treat the batch as failed.
        out.append(None if fault is not None and fault.kind == "corrupt" else result)
    return out


def _evaluate_shard(
    shard: list[SampleConfig],
    runner: ExperimentRunner,
    measure: str,
    sample_hz: float,
    shard_index: int = 0,
    attempt: int = 0,
    fault_plan: FaultPlan | None = None,
) -> list[SampleResult]:
    return evaluate_batch(
        shard, runner, measure, sample_hz,
        worker=shard_index, attempt=attempt, fault_plan=fault_plan,
    )


def _pool_run_shard(
    shard: list[SampleConfig],
    shard_index: int,
    attempt: int,
    fault_plan: FaultPlan | None,
    obs_ctx=None,
) -> list[SampleResult]:
    with obs.attach(obs_ctx), obs.span(
        "sweep.shard",
        _mem=True,
        shard=shard_index,
        points=len(shard),
        attempt=attempt,
    ):
        return _evaluate_shard(
            shard,
            _worker_state["runner"],
            _worker_state["measure"],
            _worker_state["sample_hz"],
            shard_index=shard_index,
            attempt=attempt,
            fault_plan=fault_plan,
        )


# -- engine --------------------------------------------------------------------


@dataclass
class _ShardJob:
    index: int
    configs: list[SampleConfig]
    attempts: int = 0
    results: list[SampleResult] | None = None


class SweepEngine:
    """Parallel, cached execution of experiment grids.

    Parameters
    ----------
    model:
        The analytic model to evaluate (default: shipped calibration).
    workers:
        Process count; ``None`` means ``os.cpu_count()``.  ``workers <= 1``
        runs shards in-process (same sharding, telemetry and cache).
    shard_size:
        Points per shard; default balances ``workers * 4`` shards.
    cache_dir:
        Root of the on-disk cache; ``None`` disables disk caching.
    measure:
        ``"model"`` returns the analytic energies (bit-identical to the
        serial runner); ``"sampled"`` re-measures each point through the
        10 Hz RAPL sampling chain.
    timeout_s:
        Per-shard wall-clock budget (pool mode only).  A timed-out
        shard's stragglers are abandoned by respawning the pool, and the
        shard is retried.
    retries:
        Extra attempts per shard after a failure or timeout.
    backoff_s:
        Base of the exponential backoff between retry generations.
    backoff_cap_s:
        Ceiling of the exponential backoff — the deadline-aware bound
        that keeps a deep retry chain from sleeping unboundedly.  Backoff
        sleeps run in short slices, so Ctrl-C lands promptly and the
        worker pool is torn down cleanly instead of lingering through a
        multi-second ``time.sleep``.
    transport:
        ``"local"`` (default) runs shards on an in-process pool;
        ``"dist"`` drives the lease-based coordinator/worker protocol of
        :mod:`repro.dist` on ``dist_dir`` — the same worker count, but
        spawned as independent processes joined only through the task
        board, surviving crash/hang/churn (see the ``dist_*`` knobs).
    fault_plan:
        Deterministic fault injection (:class:`~repro.robust.FaultPlan`)
        addressed by shard index and point-within-shard.  Faults model
        *worker-process* failures, so they fire only on the pool path;
        ``workers=1`` in-process shards — and the serial degradation
        fallback — never inject.
    on_failure:
        ``"raise"`` surfaces a shard that exhausted its retries as a
        typed error (:class:`~repro.errors.WorkerHangError` for
        timeouts, :class:`~repro.errors.WorkerCrashError` for dead
        workers and corrupt payloads, :class:`ExperimentError`
        otherwise); ``"serial"`` instead evaluates the shard in-process
        on the bit-identical serial path, with a warning and a
        ``shard_degraded`` telemetry event.
    """

    def __init__(
        self,
        model: PerformanceModel | None = None,
        workers: int | None = None,
        shard_size: int | None = None,
        cache_dir: str | Path | None = None,
        measure: str = "model",
        sample_hz: float = 10.0,
        timeout_s: float | None = None,
        retries: int = 2,
        backoff_s: float = 0.25,
        backoff_cap_s: float = 5.0,
        log_path: str | Path | None = None,
        progress: bool = False,
        fault_plan: FaultPlan | None = None,
        on_failure: str = "raise",
        transport: str = "local",
        dist_dir: str | Path | None = None,
        dist_ttl_s: float = 2.0,
        dist_speculate_after_s: float | None = None,
        dist_poll_s: float = 0.02,
        dist_deadline_s: float | None = None,
        dist_respawn_budget: int | None = None,
    ):
        if measure not in MEASURE_MODES:
            raise ExperimentError(
                f"unknown measure mode {measure!r}; have {MEASURE_MODES}"
            )
        if retries < 0:
            raise ExperimentError("retries must be >= 0")
        if backoff_cap_s < 0:
            raise ExperimentError("backoff_cap_s must be >= 0")
        if transport not in ("local", "dist"):
            raise ExperimentError(
                f"transport must be 'local' or 'dist', got {transport!r}"
            )
        if transport == "dist" and dist_dir is None:
            raise ExperimentError("transport='dist' requires dist_dir")
        self.model = model or PerformanceModel()
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ExperimentError("workers must be >= 1")
        self.shard_size = shard_size
        self.measure = measure
        self.sample_hz = sample_hz
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self.progress = progress
        self.fault_plan = fault_plan
        self.on_failure = validate_on_failure(on_failure)
        self.transport = transport
        self.dist_dir = Path(dist_dir) if dist_dir is not None else None
        self.dist_ttl_s = dist_ttl_s
        self.dist_speculate_after_s = dist_speculate_after_s
        self.dist_poll_s = dist_poll_s
        self.dist_deadline_s = dist_deadline_s
        self.dist_respawn_budget = dist_respawn_budget
        self._sleep = time.sleep  # injectable for the interrupt harness
        self._degraded_runner: ExperimentRunner | None = None
        self.fingerprint = calibration_fingerprint(self.model)
        self.cache = (
            SweepCache(cache_dir, self.fingerprint, measure) if cache_dir else None
        )
        if log_path is None and cache_dir is not None:
            log_path = Path(cache_dir) / "telemetry.jsonl"
        self.log_path = log_path
        self.stats = SweepStats()

    # -- public API ------------------------------------------------------------

    def run(
        self,
        configs: list[SampleConfig] | None = None,
        resume_from: ResultSet | None = None,
    ) -> ResultSet:
        """Sweep ``configs`` (default: the full 216-point grid).

        ``resume_from`` merges an earlier (partial) result set: its points
        are skipped, counted as resumed, and included in the output.
        """
        configs = list(configs) if configs is not None else full_grid()
        with obs.span(
            "sweep.run", points=len(configs), workers=self.workers,
            measure=self.measure,
        ) as run_span:
            return self._run_traced(configs, resume_from, run_span)

    def _run_traced(self, configs, resume_from, run_span) -> ResultSet:
        telemetry = SweepTelemetry(self.log_path, progress=self.progress)
        stats = self.stats = SweepStats(workers=self.workers)
        t0 = time.monotonic()
        by_key: dict[str, SampleResult] = {}
        # Dedupe repeated configs up front: shards never see the same key
        # twice, and the output assembly below is idempotent anyway.
        unique: dict[str, SampleConfig] = {}
        for cfg in configs:
            unique.setdefault(cfg.key, cfg)
        stats.points = len(unique)

        if resume_from is not None:
            for r in resume_from:
                if r.config.key in unique and r.config.key not in by_key:
                    by_key[r.config.key] = r
                    stats.resumed += 1

        misses: list[SampleConfig] = []
        for key, cfg in unique.items():
            if key in by_key:
                continue
            cached = self.cache.get(cfg) if self.cache else None
            if cached is not None:
                by_key[key] = cached
                stats.cache_hits += 1
            else:
                misses.append(cfg)

        shards = [] if self.transport == "dist" else self._partition(misses)
        stats.shards = len(shards)
        telemetry.event(
            "sweep_start",
            points=stats.points,
            cached=stats.cache_hits,
            resumed=stats.resumed,
            shards=len(shards),
            workers=self.workers,
            measure=self.measure,
            transport=self.transport,
            fingerprint=self.fingerprint,
        )
        telemetry.progress_line(len(by_key), stats.points, stats)

        try:
            if self.transport == "dist":
                if misses:
                    self._run_dist(misses, telemetry, stats, by_key)
            elif shards:
                jobs = [_ShardJob(i, shard) for i, shard in enumerate(shards)]
                if self.workers == 1:
                    self._run_serial(jobs, telemetry, stats, by_key)
                else:
                    self._run_pool(jobs, telemetry, stats, by_key)
        except KeyboardInterrupt:
            # The pool (or dist fleet) was already torn down on the way
            # out; leave a marker in the log instead of a torn stream.
            telemetry.event("sweep_interrupted", done=len(by_key))
            telemetry.close()
            raise

        stats.seconds = time.monotonic() - t0
        telemetry.event(
            "sweep_end",
            points=stats.points,
            seconds=round(stats.seconds, 6),
            points_per_sec=round(stats.points_per_sec, 2),
            cache_hits=stats.cache_hits,
            cache_hit_rate=round(stats.cache_hit_rate, 4),
            retries=stats.retries,
        )
        telemetry.close()

        obs.count("sweep.points", stats.points)
        obs.count("sweep.cache_hits", stats.cache_hits)
        obs.count("sweep.retries", stats.retries)
        obs.count("sweep.degraded", stats.degraded)
        obs.gauge("sweep.cache_hit_rate", round(stats.cache_hit_rate, 6))
        run_span.set(
            shards=stats.shards,
            cache_hits=stats.cache_hits,
            retries=stats.retries,
            degraded=stats.degraded,
        )

        out = ResultSet()
        for cfg in configs:  # input order — identical to the serial runner
            out.add(by_key[cfg.key])
        return out

    def primed_runner(
        self, configs: list[SampleConfig] | None = None
    ) -> ExperimentRunner:
        """Sweep the grid, then return a runner pre-seeded with the
        results: point-by-point artifact generators hit only its memo."""
        results = self.run(configs)
        return ExperimentRunner(self.model, results=results)

    # -- internals -------------------------------------------------------------

    def _partition(self, configs: list[SampleConfig]) -> list[list[SampleConfig]]:
        if not configs:
            return []
        size = self.shard_size
        if size is None:
            size = max(1, -(-len(configs) // (self.workers * _SHARDS_PER_WORKER)))
        return [configs[i : i + size] for i in range(0, len(configs), size)]

    def _record_shard(self, job, seconds, attempt, telemetry, stats, by_key):
        for r in job.results:
            by_key[r.config.key] = r
            if self.cache:
                self.cache.put(r)
        telemetry.event(
            "shard_done",
            shard=job.index,
            points=len(job.configs),
            seconds=round(seconds, 6),
            attempt=attempt,
        )
        done = len(by_key)
        obs.count("sweep.shards_done")
        telemetry.progress_line(done, stats.points, stats)

    def _validate_shard(self, job) -> None:
        """Reject corrupt shard payloads (wrong length, holes, key drift)."""
        ok = (
            isinstance(job.results, list)
            and len(job.results) == len(job.configs)
            and all(
                isinstance(r, SampleResult) and r.config.key == cfg.key
                for r, cfg in zip(job.results, job.configs)
            )
        )
        if not ok:
            job.results = None
            raise WorkerCrashError(
                f"shard {job.index} returned a corrupt payload"
            )

    @staticmethod
    def _failure_kind(exc) -> str:
        if isinstance(exc, FuturesTimeout):
            return "timeout"
        if isinstance(exc, (BrokenProcessPool, WorkerCrashError)):
            return "crash"
        return "error"

    def _degrade_shard(self, job, exc, telemetry, stats, by_key) -> None:
        """Evaluate a given-up shard in-process on the serial path."""
        warn_degraded("SweepEngine", f"shard {job.index}: {exc}")
        stats.degraded += 1
        telemetry.event(
            "shard_degraded", shard=job.index, attempts=job.attempts,
            kind=self._failure_kind(exc), detail=str(exc),
        )
        if getattr(self, "_degraded_runner", None) is None:
            self._degraded_runner = ExperimentRunner(self.model)
        t0 = time.monotonic()
        job.results = _evaluate_shard(
            job.configs, self._degraded_runner, self.measure, self.sample_hz
        )
        self._record_shard(
            job, time.monotonic() - t0, job.attempts + 1, telemetry, stats,
            by_key,
        )

    def _retry_or_raise(self, job, exc, telemetry, stats, by_key) -> bool:
        """Handle one shard failure.

        Returns ``True`` when the shard was *resolved* by serial
        degradation (it must not be retried), ``False`` when it should
        ride into the next retry generation.  With ``on_failure="raise"``
        and the retry budget exhausted, raises the typed error matching
        the failure kind.
        """
        job.attempts += 1
        stats.retries += 1
        kind = self._failure_kind(exc)
        if job.attempts > self.retries:
            telemetry.event(
                "shard_failed", shard=job.index, attempts=job.attempts, kind=kind,
                detail=str(exc),
            )
            if self.on_failure == "serial":
                self._degrade_shard(job, exc, telemetry, stats, by_key)
                return True
            telemetry.close()
            message = (
                f"shard {job.index} failed after {job.attempts} attempts: "
                f"{kind}: {exc}"
            )
            cause = None if isinstance(exc, FuturesTimeout) else exc
            if kind == "timeout":
                raise WorkerHangError(message) from cause
            if kind == "crash":
                raise WorkerCrashError(message) from cause
            raise ExperimentError(message) from cause
        backoff = min(
            self.backoff_s * (2 ** (job.attempts - 1)), self.backoff_cap_s
        )
        telemetry.event(
            "shard_retry", shard=job.index, attempt=job.attempts, kind=kind,
            backoff_s=round(backoff, 3), detail=str(exc),
        )
        if backoff > 0:
            self._backoff_sleep(backoff)
        return False

    def _backoff_sleep(self, seconds: float) -> None:
        """Sleep ``seconds`` against a deadline, in interruptible slices.

        One monolithic ``time.sleep`` would hold a Ctrl-C hostage for the
        whole backoff on platforms where the signal does not interrupt
        the sleep, and oversleeping under a monkeypatched slow clock
        would stretch every retry generation.  Slicing bounds both: each
        slice re-checks the deadline, and a ``KeyboardInterrupt`` lands
        between slices — propagating out through :meth:`_run_pool`'s
        ``finally``, which terminates the abandoned pool.
        """
        deadline = time.monotonic() + seconds
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            self._sleep(min(remaining, 0.05))

    def _run_serial(self, jobs, telemetry, stats, by_key) -> None:
        runner = ExperimentRunner(self.model)
        for job in jobs:
            while True:
                t0 = time.monotonic()
                try:
                    with obs.span(
                        "sweep.shard", shard=job.index,
                        points=len(job.configs), attempt=job.attempts,
                    ):
                        job.results = _evaluate_shard(
                            job.configs, runner, self.measure, self.sample_hz
                        )
                except Exception as exc:
                    if self._retry_or_raise(job, exc, telemetry, stats, by_key):
                        break
                    continue
                self._record_shard(
                    job, time.monotonic() - t0, job.attempts + 1, telemetry,
                    stats, by_key,
                )
                break

    def _new_pool(self) -> ProcessPoolExecutor:
        # Pool shards return typed results, not a message stream, so
        # worker-side counters have no ride home; say so explicitly
        # rather than let snapshots silently under-report.
        if obs.metrics_active():
            obs.gauge("workers_unmetered", self.workers, study="sweep")
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=(self.model, self.measure, self.sample_hz),
        )

    @staticmethod
    def _abandon_pool(executor: ProcessPoolExecutor) -> None:
        """Tear a pool down without trusting its workers to cooperate.

        ``shutdown(wait=False)`` alone leaves a hung worker alive, and
        ``concurrent.futures`` joins leftover workers at interpreter
        exit — the whole program would hang on the worker we just gave
        up on.  Terminate them outright.
        """
        procs = list(getattr(executor, "_processes", {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        for p in procs:
            try:
                p.terminate()
            except Exception:
                pass

    def _run_pool(self, jobs, telemetry, stats, by_key) -> None:
        pending = list(jobs)
        executor = self._new_pool()
        try:
            while pending:
                futures: list[tuple[_ShardJob, object]] = []
                failed: list[_ShardJob] = []
                respawn = False
                for job in pending:
                    if respawn:
                        failed.append(job)
                        continue
                    try:
                        futures.append((
                            job,
                            executor.submit(
                                _pool_run_shard, job.configs, job.index,
                                job.attempts, self.fault_plan,
                                obs.worker_context(),
                            ),
                        ))
                    except BrokenProcessPool:
                        # A worker died while this generation was still
                        # being submitted; the submit itself fails.  The
                        # death belongs to a shard that actually ran —
                        # not this one, which never executed — so it
                        # rides into the next generation without a
                        # retry penalty and the crashed shard's own
                        # future carries the failure.
                        self._abandon_pool(executor)
                        executor = self._new_pool()
                        respawn = True
                        failed.append(job)
                for job, fut in futures:
                    if respawn:
                        # The pool was torn down to abandon a stuck shard
                        # (or died under a crashed worker); everything
                        # unharvested rides into the next generation
                        # without a retry penalty.
                        failed.append(job)
                        continue
                    t0 = time.monotonic()
                    try:
                        job.results = fut.result(timeout=self.timeout_s)
                        self._validate_shard(job)
                    except (FuturesTimeout, BrokenProcessPool) as exc:
                        # Either way the pool can't be trusted any more:
                        # a timed-out shard's straggler would deliver
                        # into the next generation, a broken pool fails
                        # every future.  Respawn and retry.
                        self._abandon_pool(executor)
                        executor = self._new_pool()
                        respawn = True
                        if not self._retry_or_raise(
                            job, exc, telemetry, stats, by_key
                        ):
                            failed.append(job)
                    except Exception as exc:
                        if not self._retry_or_raise(
                            job, exc, telemetry, stats, by_key
                        ):
                            failed.append(job)
                    else:
                        self._record_shard(
                            job, time.monotonic() - t0, job.attempts + 1,
                            telemetry, stats, by_key,
                        )
                pending = failed
        finally:
            self._abandon_pool(executor)

    # -- distributed transport -------------------------------------------------

    def _run_dist(self, misses, telemetry, stats, by_key) -> None:
        """Run the cache misses through the :mod:`repro.dist` protocol.

        The coordinator runs in-process; ``self.workers`` worker
        processes are spawned locally and joined only through the task
        board on ``dist_dir`` — exactly what remote workers would do
        from another host sharing the mount.  An existing board at
        ``dist_dir`` is resumed (and verified against this grid and
        calibration); dead workers are respawned with fresh ids while
        the respawn budget lasts.
        """
        import multiprocessing as mp

        from repro.dist import DistCoordinator
        from repro.dist.worker import worker_main

        resume = (self.dist_dir / "board.json").exists()
        coordinator = DistCoordinator(
            self.dist_dir,
            configs=misses,
            model=self.model,
            shard_size=self.shard_size,
            measure=self.measure,
            sample_hz=self.sample_hz,
            ttl_s=self.dist_ttl_s,
            speculate_after_s=self.dist_speculate_after_s,
            poll_s=self.dist_poll_s,
            resume=resume,
        )
        stats.shards = coordinator.stats["shards"]
        telemetry.event(
            "dist_start",
            board=str(self.dist_dir),
            shards=coordinator.stats["shards"],
            resumed_shards=coordinator.stats["resumed"],
            workers=self.workers,
        )
        ctx = mp.get_context("spawn")
        budget = (
            self.dist_respawn_budget
            if self.dist_respawn_budget is not None
            else 2 * self.workers
        )
        procs: list = []
        next_id = 0
        obs_ctx = obs.worker_context()

        def spawn_one():
            nonlocal next_id
            p = ctx.Process(
                target=worker_main,
                args=(
                    str(self.dist_dir), next_id, self.model, self.fault_plan,
                    self.dist_ttl_s, self.dist_poll_s, self.dist_deadline_s,
                    obs_ctx,
                ),
                daemon=True,
            )
            next_id += 1
            p.start()
            procs.append(p)

        def tick():
            nonlocal budget
            alive = [p for p in procs if p.is_alive()]
            dead = len(procs) - len(alive)
            if dead and budget > 0:
                refill = min(self.workers - len(alive), budget)
                for _ in range(max(0, refill)):
                    spawn_one()
                    budget -= 1
            elif not alive and budget <= 0:
                raise WorkerCrashError(
                    "every dist worker died and the respawn budget is "
                    "exhausted; the board cannot complete"
                )

        try:
            for _ in range(self.workers):
                spawn_one()
            results = coordinator.run(
                deadline_s=self.dist_deadline_s, tick=tick
            )
        finally:
            # Completion (or failure) reaps the fleet either way: healthy
            # workers notice the finished board and exit; hung ones are
            # terminated so nothing outlives the sweep.
            for p in procs:
                p.join(timeout=max(1.0, 20 * self.dist_poll_s))
            for p in procs:
                if p.is_alive():
                    p.terminate()
            for p in procs:
                p.join(timeout=5.0)

        for r in results:
            by_key[r.config.key] = r
            if self.cache:
                self.cache.put(r)
        for key, value in coordinator.stats.items():
            obs.gauge(f"dist.{key}", value)
        telemetry.event("dist_end", **coordinator.stats)
        telemetry.progress_line(len(by_key), stats.points, stats)
        self.dist_stats = coordinator.stats


def sweep_grid(
    configs: list[SampleConfig] | None = None,
    model: PerformanceModel | None = None,
    **engine_kwargs,
) -> ResultSet:
    """One-shot convenience: ``SweepEngine(model, **kwargs).run(configs)``."""
    return SweepEngine(model=model, **engine_kwargs).run(configs)


def resolve_runner(
    runner: ExperimentRunner | None, sweep: "SweepEngine | None" = None
) -> ExperimentRunner:
    """The runner an artifact generator should use.

    An explicit runner wins; otherwise a given sweep engine executes the
    full grid (parallel, cached) and hands back a primed runner; failing
    both, a fresh serial runner.
    """
    if runner is not None:
        return runner
    if sweep is not None:
        return sweep.primed_runner()
    return ExperimentRunner()
