"""Locality-advisor service: the paper's findings as a queryable API.

``sfc-repro serve`` exposes the calibrated analytic model (and,
optionally, a sweep-backed evaluation worker pool) over HTTP:
``POST /v1/advise`` takes a workload description — kernel, problem
size, candidate element orderings, thread placement, frequency range —
and returns predicted miss/energy/runtime curves plus the recommended
ordering for the requested objective (energy, time, or EDP).

Layering, bottom up:

* :mod:`repro.serve.schemas` — strict request validation, canonical
  form, content-addressed request keys;
* :mod:`repro.serve.advisor` — pure advice computation over evaluated
  sample points (golden-pinned determinism);
* :mod:`repro.serve.workers` — watchdog-guarded spawn-process pool
  running the same :func:`~repro.experiments.sweep.evaluate_batch` loop
  as the sweep engine;
* :mod:`repro.serve.state` — warm memory over the content-addressed
  :class:`~repro.experiments.sweep.SweepCache` and a crash-tolerant
  warm-state journal;
* :mod:`repro.serve.batching` — request coalescing, bounded admission,
  graceful degradation to the analytic model;
* :mod:`repro.serve.app` — the asyncio HTTP listener and status/error
  mapping.
"""

from repro.serve.advisor import advise_payload, evaluate_analytic, plan_configs
from repro.serve.app import AdvisorService, ThreadedService
from repro.serve.batching import AdviseOutcome, Batcher
from repro.serve.schemas import (
    KERNELS,
    OBJECTIVES,
    REFINE_MODES,
    SERVE_SCHEMA_VERSION,
    AdviseRequest,
    request_key,
    validate_advise_request,
)
from repro.serve.state import ServiceState
from repro.serve.workers import EvalWorkerPool

__all__ = [
    "KERNELS",
    "OBJECTIVES",
    "REFINE_MODES",
    "SERVE_SCHEMA_VERSION",
    "AdviseOutcome",
    "AdviseRequest",
    "AdvisorService",
    "Batcher",
    "EvalWorkerPool",
    "ServiceState",
    "ThreadedService",
    "advise_payload",
    "evaluate_analytic",
    "plan_configs",
    "request_key",
    "validate_advise_request",
]
