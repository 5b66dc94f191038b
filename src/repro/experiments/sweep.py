"""Disk-cached experiment sweeps.

The serial :meth:`~repro.experiments.runner.ExperimentRunner.run_grid`
walks the 216-point Table III grid and keeps results only in memory.
This module is the engine behind the tables, the figures and the report:

* **On-disk cache** — results land in a content-addressed cache keyed by
  the sample point's config key *and* a stable hash of the analytic
  model's calibration parameters (:func:`calibration_fingerprint`), so a
  recalibrated model invalidates cleanly while reruns and resumed sweeps
  are served from disk.  Writes are atomic and durable (fsynced tmp
  file + ``os.replace``) and the per-entry schema is versioned.
* **Telemetry** — a JSON-lines event log (sweep start, end with points/s
  and cache hit rate, interruption) plus an optional live stderr
  progress line.

Cache misses are evaluated in-process, one point at a time through
:func:`evaluate_batch`, and each point is written to the cache as soon
as it is computed: a sweep interrupted part-way keeps every point it
finished.  A sweep over the same model is bit-identical to the serial
runner: it evaluates the very same :class:`PerformanceModel` arithmetic
and assembles the output set in input order.

The optional ``measure="sampled"`` mode re-measures every modelled run
through the paper's RAPL chain (quantized wrapping counters sampled at
10 Hz, trapezoidal integration — :mod:`repro.perf.sampling`).  The
counter reads are computed in closed form, so a sampled point costs
about as much as 20 model points (grid average); the whole sampled grid
takes a fraction of a second.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from repro import obs
from repro.errors import ExperimentError
from repro.robust.fsutil import durable_write, sweep_stale_tmp
from repro.experiments.configs import SampleConfig, full_grid
from repro.experiments.results import ResultSet, SampleResult
from repro.experiments.runner import ExperimentRunner
from repro.robust import FaultPlan, execute_fault
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
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "result": result.to_dict(),
        }
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            durable_write(
                self._path(result.config), json.dumps(payload, sort_keys=True)
            )
        except OSError as exc:
            raise ExperimentError(
                f"cannot write sweep cache entry under {self.dir}: {exc}"
            ) from exc

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
    """Aggregate counters of one sweep invocation.

    ``retries`` and ``degraded`` are always 0 and ``workers`` is always
    1: the engine evaluates in-process and neither retries nor degrades.
    They stay because ``benchmarks/ledger/workloads.py`` reads them.
    """

    points: int = 0
    cache_hits: int = 0
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
            try:
                self.log_path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = open(self.log_path, "a")
            except OSError as exc:
                raise ExperimentError(
                    f"cannot write sweep telemetry {self.log_path}: {exc}"
                ) from exc

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


# -- evaluation ----------------------------------------------------------------


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
    fault_plan: FaultPlan | None = None,
) -> list[SampleResult | None]:
    """Evaluate a batch of sample points, with optional fault injection.

    The single evaluation loop shared by the sweep engine and the
    advisor service's worker pool.  ``worker`` is the pool worker id and
    ``step_base`` carries the worker's cumulative point count across
    batches, so a fault plan addresses one flat step space per worker.
    Faults fire *before* the point is evaluated; a ``corrupt`` fault
    punches a ``None`` hole into the returned list, which consumers must
    detect and reject.
    """
    out: list[SampleResult | None] = []
    for i, cfg in enumerate(configs):
        fault = fault_plan.fire(worker, step_base + i) if fault_plan else None
        if fault is not None and fault.kind != "corrupt":
            execute_fault(fault)
        result = runner.run(cfg)
        if measure == "sampled":
            result = _measured_result(result, sample_hz)
        # A "corrupt" fault tampers with the shipped payload: the parent
        # must notice the hole and treat the batch as failed.
        out.append(None if fault is not None and fault.kind == "corrupt" else result)
    return out


# -- engine --------------------------------------------------------------------


class SweepEngine:
    """Cached, in-process execution of experiment grids.

    Parameters
    ----------
    model:
        The analytic model to evaluate (default: shipped calibration).
    cache_dir:
        Root of the on-disk cache; ``None`` disables disk caching.
    measure:
        ``"model"`` returns the analytic energies (bit-identical to the
        serial runner); ``"sampled"`` re-measures each point through the
        RAPL sampling chain.
    sample_hz:
        Sampling rate of the ``"sampled"`` chain (the paper's 10 Hz).
    log_path:
        JSON-lines telemetry file; defaults to ``telemetry.jsonl`` in
        ``cache_dir`` (none without a cache).
    progress:
        Draw a live progress line on stderr.
    """

    def __init__(
        self,
        model: PerformanceModel | None = None,
        cache_dir: str | Path | None = None,
        measure: str = "model",
        sample_hz: float = 10.0,
        log_path: str | Path | None = None,
        progress: bool = False,
    ):
        if measure not in MEASURE_MODES:
            raise ExperimentError(
                f"unknown measure mode {measure!r}; have {MEASURE_MODES}"
            )
        self.model = model or PerformanceModel()
        self.measure = measure
        self.sample_hz = sample_hz
        self.progress = progress
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
            "sweep.run", points=len(configs), measure=self.measure,
        ) as run_span:
            return self._run_traced(configs, resume_from, run_span)

    def _run_traced(self, configs, resume_from, run_span) -> ResultSet:
        telemetry = SweepTelemetry(self.log_path, progress=self.progress)
        stats = self.stats = SweepStats()
        t0 = time.monotonic()
        by_key: dict[str, SampleResult] = {}
        # Dedupe repeated configs up front: no key is evaluated twice,
        # and the output assembly below is idempotent anyway.
        unique: dict[str, SampleConfig] = {}
        for cfg in configs:
            unique.setdefault(cfg.key, cfg)
        stats.points = len(unique)

        if resume_from is not None:
            for r in resume_from:
                if r.config.key in unique and r.config.key not in by_key:
                    by_key[r.config.key] = r
                    stats.resumed += 1

        try:
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

            telemetry.event(
                "sweep_start",
                points=stats.points,
                cached=stats.cache_hits,
                resumed=stats.resumed,
                measure=self.measure,
                fingerprint=self.fingerprint,
            )
            telemetry.progress_line(len(by_key), stats.points, stats)
            if misses:
                self._evaluate(misses, telemetry, stats, by_key)

            stats.seconds = time.monotonic() - t0
            telemetry.event(
                "sweep_end",
                points=stats.points,
                seconds=round(stats.seconds, 6),
                points_per_sec=round(stats.points_per_sec, 2),
                cache_hits=stats.cache_hits,
                cache_hit_rate=round(stats.cache_hit_rate, 4),
            )
        except KeyboardInterrupt:
            # Every finished point is already in the cache; leave a
            # marker in the log instead of a torn stream.
            telemetry.event("sweep_interrupted", done=len(by_key))
            raise
        finally:
            telemetry.close()

        obs.count("sweep.points", stats.points)
        obs.count("sweep.cache_hits", stats.cache_hits)
        obs.gauge("sweep.cache_hit_rate", round(stats.cache_hit_rate, 6))
        run_span.set(cache_hits=stats.cache_hits)

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

    def _evaluate(self, misses, telemetry, stats, by_key) -> None:
        """Evaluate the cache misses, caching each point as it lands."""
        runner = ExperimentRunner(self.model)
        with obs.span("sweep.evaluate", points=len(misses)):
            for cfg in misses:
                (result,) = evaluate_batch(
                    [cfg], runner, self.measure, self.sample_hz
                )
                by_key[cfg.key] = result
                if self.cache:
                    self.cache.put(result)
                telemetry.progress_line(len(by_key), stats.points, stats)


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
    full grid (cached) and hands back a primed runner; failing both, a
    fresh serial runner.
    """
    if runner is not None:
        return runner
    if sweep is not None:
        return sweep.primed_runner()
    return ExperimentRunner()
