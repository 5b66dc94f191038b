"""Exception types shared across the :mod:`repro` package.

Every error raised by the public API derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
letting programming errors (``TypeError`` et al.) propagate unchanged.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "CurveDomainError",
    "LayoutError",
    "KernelError",
    "TraceError",
    "SimulationError",
    "CalibrationError",
    "ExperimentError",
    "WorkerCrashError",
    "WorkerHangError",
    "CheckpointError",
    "ObservabilityError",
    "ServeError",
    "ValidationError",
    "AdmissionError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CurveDomainError(ReproError, ValueError):
    """A coordinate or index lies outside a curve's domain.

    Raised, for example, when encoding coordinates that are negative, exceed
    the curve's side length, or when a curve is constructed for a side length
    its construction cannot tile (non power-of-two for quadrant curves,
    non power-of-three for the Peano curve).
    """


class LayoutError(ReproError, ValueError):
    """A matrix layout operation received an incompatible matrix or curve."""


class KernelError(ReproError, ValueError):
    """A matrix-multiplication kernel was invoked on incompatible operands."""


class TraceError(ReproError, ValueError):
    """A trace generator received inconsistent geometry or parameters."""


class SimulationError(ReproError, RuntimeError):
    """The machine simulator was configured or driven inconsistently."""


class CalibrationError(ReproError, RuntimeError):
    """Analytic-model calibration failed (insufficient or degenerate data)."""


class ExperimentError(ReproError, RuntimeError):
    """An experiment configuration or runner invariant was violated."""


class WorkerCrashError(SimulationError, ExperimentError):
    """A parallel worker process died, raised, or returned a corrupt payload.

    Raised by the process pool (:mod:`repro.robust.pool`) under the
    trace-sim engine (:mod:`repro.sim.parallel`) and the studies, and by
    the advisor's evaluation pool (:mod:`repro.serve.workers`), so it
    derives from both taxonomies: existing ``except SimulationError`` and
    ``except ExperimentError`` sites keep catching it.
    """


class WorkerHangError(SimulationError, ExperimentError):
    """A parallel worker stalled past the configured hang timeout.

    The watchdog terminated the worker pool before raising, so no live
    children are left behind.
    """


class ObservabilityError(ReproError, RuntimeError):
    """An observability session or trace file is unusable.

    Raised when a session is configured without any sink, when a trace
    file cannot be read by ``trace-report``, or contains no spans.  Never
    raised from the instrumentation hooks themselves — those are no-ops
    when observability is off and must not perturb the instrumented code.
    """


class ServeError(ReproError, RuntimeError):
    """The advisor service was misconfigured or driven inconsistently.

    Base of the :mod:`repro.serve` taxonomy; the HTTP layer maps the
    concrete subclasses to status codes (:class:`ValidationError` to 400,
    :class:`AdmissionError` to 429) and anything else in the
    :class:`ReproError` family to 500.
    """


class ValidationError(ServeError, ValueError):
    """An advise request failed schema validation.

    Carries ``path``, the machine-readable location of the offending
    field (``"schemes[1]"``, ``"deadline_s"``, or ``"$"`` for the
    document root), so clients can surface the rejection precisely; the
    service echoes it in the typed 400 error body.
    """

    def __init__(self, message: str, path: str = "$"):
        super().__init__(message)
        self.path = path


class AdmissionError(ServeError):
    """The service's bounded admission queue is full.

    Mapped to 429; ``retry_after_s`` rides out as the ``Retry-After``
    header so well-behaved clients back off instead of hammering.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class CheckpointError(ExperimentError):
    """A checkpoint journal is unusable for the requested resume.

    Raised when a journal's recorded study parameters do not match the
    current invocation, or when the journal cannot be read at all.  A
    truncated or corrupt *tail* is tolerated (the damaged records are
    dropped and reported), never an error.
    """
