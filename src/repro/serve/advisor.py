"""Advice computation: sample points -> curves -> recommended ordering.

The advisor is deliberately a pure function over
(:class:`~repro.serve.schemas.AdviseRequest`, evaluated sample results):
:func:`advise_payload` contains no clocks, trace ids, or service state,
so the same request against the same calibration always produces a
byte-identical core payload — that is what the golden test in
``tests/golden/`` pins at rtol 1e-9, and what makes coalesced waiters
safely share one computed answer.
"""

from __future__ import annotations

from repro.experiments.configs import SampleConfig
from repro.experiments.results import SampleResult
from repro.experiments.runner import ExperimentRunner
from repro.experiments.sweep import evaluate_batch
from repro.serve.schemas import SERVE_SCHEMA_VERSION, AdviseRequest
from repro.sim.analytic import PerformanceModel

__all__ = ["advise_payload", "evaluate_analytic", "plan_configs"]


def plan_configs(request: AdviseRequest) -> list[SampleConfig]:
    """Sample points an advise request fans out to (schemes x freqs)."""
    return request.configs


def evaluate_analytic(
    request: AdviseRequest, model: PerformanceModel
) -> dict[str, SampleResult]:
    """Evaluate a request in-process through the calibrated model.

    This is both the fast path (``refine="analytic"``) and the graceful
    degradation target when the evaluation worker pool crashes or the request
    deadline fires; degraded responses always use ``measure="model"``
    semantics regardless of the requested mode, because the analytic
    path has no sampler to re-measure with.
    """
    runner = ExperimentRunner(model=model)
    configs = plan_configs(request)
    results = evaluate_batch(configs, runner, measure="model")
    return {cfg.key: r for cfg, r in zip(configs, results) if r is not None}


def _objective_value(result: SampleResult, objective: str) -> float:
    if objective == "time":
        return result.seconds
    if objective == "edp":
        return result.total_j * result.seconds
    return result.total_j


def advise_payload(
    request: AdviseRequest,
    results_by_key: dict[str, SampleResult],
) -> dict:
    """Assemble the deterministic core of an advise response.

    ``results_by_key`` maps :attr:`SampleConfig.key` to its evaluated
    result and must cover every point of :func:`plan_configs`.  Curves
    are emitted per scheme along the canonical frequency axis; the
    recommendation is the argmin of the requested objective across all
    points, ties broken by (scheme, frequency-axis) order so the answer
    never depends on dict iteration.
    """
    curves: dict[str, dict] = {}
    best: tuple[float, int, SampleResult] | None = None
    rank = 0
    for scheme in request.schemes:
        freqs: list[float | str] = []
        seconds: list[float] = []
        freq_ghz: list[float] = []
        llc_misses: list[float] = []
        package_j: list[float] = []
        pp0_j: list[float] = []
        dram_j: list[float] = []
        total_j: list[float] = []
        edp: list[float] = []
        for freq in request.frequencies:
            cfg = SampleConfig(scheme, request.size_exp, freq, request.placement)
            result = results_by_key[cfg.key]
            freqs.append(freq)
            seconds.append(result.seconds)
            freq_ghz.append(result.freq_ghz)
            llc_misses.append(result.llc_misses)
            package_j.append(result.package_j)
            pp0_j.append(result.pp0_j)
            dram_j.append(result.dram_j)
            total_j.append(result.total_j)
            edp.append(result.total_j * result.seconds)
            value = _objective_value(result, request.objective)
            if best is None or value < best[0]:
                best = (value, rank, result)
            rank += 1
        curves[scheme] = {
            "frequencies": freqs,
            "seconds": seconds,
            "freq_ghz": freq_ghz,
            "llc_misses": llc_misses,
            "package_j": package_j,
            "pp0_j": pp0_j,
            "dram_j": dram_j,
            "total_j": total_j,
            "edp": edp,
        }
    assert best is not None  # schemes and frequencies are non-empty
    chosen = best[2]
    return {
        "schema_version": SERVE_SCHEMA_VERSION,
        "request": request.to_dict(),
        "curves": curves,
        "recommendation": {
            "scheme": chosen.config.scheme,
            "frequency": chosen.config.frequency,
            "objective": request.objective,
            "objective_value": best[0],
            "seconds": chosen.seconds,
            "total_j": chosen.total_j,
            "edp": chosen.total_j * chosen.seconds,
        },
    }
