"""Advise request/response schemas: strict validation, canonical form.

The service speaks JSON over HTTP; this module is the whole contract.
Two properties carry the test harness:

* **Canonical round-trip** — :func:`validate_advise_request` normalizes
  an accepted document (scheme candidates deduped and sorted,
  frequencies taken at the sample keys' 1 MHz resolution, deduped and
  sorted numerics-then-governors, defaults made explicit), and
  :meth:`AdviseRequest.to_dict` re-serializes that canonical form.
  Validating a canonical document is the identity, so any accepted
  request re-serializes identically — the Hypothesis suite in
  ``tests/properties/test_serve_schemas.py`` enforces it.
* **Typed rejection** — every invalid document raises
  :class:`~repro.errors.ValidationError` carrying a machine-readable
  ``path`` to the offending field (``"schemes[1]"``, ``"$"`` for the
  document root); the HTTP layer echoes it in the 400 body.

Canonicalization is also what makes coalescing correct:
:func:`request_key` hashes the canonical form together with the model's
calibration fingerprint, so ``["ho", "mo"]`` and ``["mo", "ho"]``
address the same memo/cache entry instead of splitting it (regression
test alongside the SweepCache suites in
``tests/experiments/test_sweep.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError
from repro.experiments.configs import (
    FREQUENCIES,
    SampleConfig,
    parse_thread_config,
)
from repro.experiments.sweep import MEASURE_MODES
from repro.robust.journal import canonical_sha

__all__ = [
    "KERNELS",
    "OBJECTIVES",
    "REFINE_MODES",
    "SERVE_SCHEMA_VERSION",
    "AdviseRequest",
    "canonical_frequencies",
    "canonical_schemes",
    "request_key",
    "validate_advise_request",
]

#: Bump when the wire format changes; responses echo it.
SERVE_SCHEMA_VERSION = 1

#: Workloads the advisor can model.  The analytic model is calibrated on
#: the paper's matrix multiplication; new kernels register here.
KERNELS = ("matmul",)

#: What "best ordering" minimizes.
OBJECTIVES = ("energy", "time", "edp")

#: How predictions are produced: ``auto`` uses the sweep-backed worker
#: pool when one is available, ``sweep`` requires it (degrading with a
#: marked response when it is gone), ``analytic`` stays in-process.
REFINE_MODES = ("auto", "sweep", "analytic")

#: Problem-size exponent bounds accepted over the wire (side = 2^k).
SIZE_EXP_RANGE = (4, 16)

_FIELDS = (
    "kernel", "size_exp", "schemes", "placement", "frequencies",
    "measure", "refine", "objective", "deadline_s",
)


def canonical_schemes(schemes) -> tuple[str, ...]:
    """Dedupe and sort a scheme-candidate set.

    The candidate *set* determines the answer, not its order; hashing a
    non-canonical list would split memo entries between permutations of
    the same request.
    """
    return tuple(sorted(set(schemes)))


def canonical_frequencies(frequencies) -> tuple[float | str, ...]:
    """Dedupe and sort frequencies: numeric ascending, then governors.

    GHz values are taken at the 1 MHz resolution of the sample keys
    (:attr:`~repro.experiments.configs.SampleConfig.frequency_label`):
    two values that name one sample point are one frequency.
    """
    numeric = sorted(
        {round(f * 1000) / 1000 for f in frequencies if not isinstance(f, str)}
    )
    governors = sorted({f for f in frequencies if isinstance(f, str)})
    return tuple(numeric) + tuple(governors)


@dataclass(frozen=True)
class AdviseRequest:
    """One validated, canonical advise query.

    Construct through :func:`validate_advise_request`; the constructor
    itself performs no checking.
    """

    kernel: str
    size_exp: int
    schemes: tuple[str, ...]
    placement: str
    frequencies: tuple[float | str, ...]
    measure: str
    refine: str
    objective: str
    deadline_s: float | None

    def to_dict(self) -> dict:
        """Canonical wire form: validating it reproduces this request."""
        return {
            "kernel": self.kernel,
            "size_exp": self.size_exp,
            "schemes": list(self.schemes),
            "placement": self.placement,
            "frequencies": list(self.frequencies),
            "measure": self.measure,
            "refine": self.refine,
            "objective": self.objective,
            "deadline_s": self.deadline_s,
        }

    @property
    def configs(self) -> list[SampleConfig]:
        """The sample points this request fans out to (schemes x freqs)."""
        return [
            SampleConfig(scheme, self.size_exp, freq, self.placement)
            for scheme in self.schemes
            for freq in self.frequencies
        ]


def request_key(request: AdviseRequest, fingerprint: str) -> str:
    """Content address of one advise computation.

    Canonical request JSON + the calibration fingerprint: identical
    concurrent requests coalesce onto one evaluation, and recalibrating
    the model invalidates every memoized answer — the same discipline as
    the :class:`~repro.experiments.sweep.SweepCache`.  ``deadline_s`` is
    a per-call execution hint, never part of the answer, so it is always
    excluded.  ``refine`` is a hint only under ``measure="model"`` (the
    analytic model answers either way); for any other measure it decides
    the evaluation semantics (pool-refined vs analytic stand-in), so it
    stays in the key — a ``refine="sweep"`` request must never coalesce
    onto a concurrent analytic job and silently receive stand-in data.
    """
    doc = request.to_dict()
    del doc["deadline_s"]
    if doc["measure"] == "model":
        del doc["refine"]
    return canonical_sha(
        {"schema": SERVE_SCHEMA_VERSION, "fingerprint": fingerprint, "request": doc}
    )


def _expect(cond: bool, message: str, path: str) -> None:
    if not cond:
        raise ValidationError(message, path=path)


def _check_str(value, path: str) -> str:
    _expect(isinstance(value, str), "expected a string", path)
    return value


def validate_advise_request(
    doc,
    known_schemes=("rm", "mo", "ho"),
    max_deadline_s: float | None = None,
) -> AdviseRequest:
    """Validate a decoded JSON document into a canonical request.

    ``known_schemes`` is the calibrated scheme registry of the serving
    model; candidates outside it are a 400, not a 500 downstream.
    ``max_deadline_s`` caps client deadlines at the service's ceiling.
    Raises :class:`~repro.errors.ValidationError` with a field ``path``
    on the first offense.
    """
    _expect(isinstance(doc, dict), "request body must be a JSON object", "$")
    for field in doc:
        _expect(field in _FIELDS, f"unknown field {field!r}", str(field))

    kernel = _check_str(doc.get("kernel", "matmul"), "kernel")
    _expect(kernel in KERNELS, f"unknown kernel {kernel!r}; have {KERNELS}", "kernel")

    size_exp = doc.get("size_exp", 10)
    _expect(
        isinstance(size_exp, int) and not isinstance(size_exp, bool),
        "size_exp must be an integer",
        "size_exp",
    )
    lo, hi = SIZE_EXP_RANGE
    _expect(
        lo <= size_exp <= hi,
        f"size_exp must be in [{lo}, {hi}]",
        "size_exp",
    )

    schemes = doc.get("schemes", list(known_schemes))
    _expect(isinstance(schemes, list), "schemes must be a list", "schemes")
    _expect(len(schemes) > 0, "schemes must not be empty", "schemes")
    for i, s in enumerate(schemes):
        _check_str(s, f"schemes[{i}]")
        _expect(
            s in known_schemes,
            f"unknown scheme {s!r}; calibrated schemes: "
            f"{sorted(known_schemes)}",
            f"schemes[{i}]",
        )

    placement = _check_str(doc.get("placement", "8s"), "placement")
    try:
        parse_thread_config(placement)
    except Exception as exc:
        raise ValidationError(str(exc), path="placement") from None

    frequencies = doc.get("frequencies", list(FREQUENCIES))
    _expect(isinstance(frequencies, list), "frequencies must be a list", "frequencies")
    _expect(len(frequencies) > 0, "frequencies must not be empty", "frequencies")
    canon_freqs: list[float | str] = []
    for i, f in enumerate(frequencies):
        path = f"frequencies[{i}]"
        if isinstance(f, str):
            _expect(
                f == "ondemand",
                f"unknown governor {f!r}; only 'ondemand' is modelled",
                path,
            )
            canon_freqs.append(f)
        else:
            _expect(
                isinstance(f, (int, float)) and not isinstance(f, bool),
                "expected a GHz number or 'ondemand'",
                path,
            )
            _expect(0.1 <= float(f) <= 10.0, "GHz value out of range [0.1, 10]", path)
            canon_freqs.append(float(f))

    measure = _check_str(doc.get("measure", "model"), "measure")
    _expect(
        measure in MEASURE_MODES,
        f"measure must be one of {MEASURE_MODES}",
        "measure",
    )

    refine = _check_str(doc.get("refine", "auto"), "refine")
    _expect(
        refine in REFINE_MODES, f"refine must be one of {REFINE_MODES}", "refine"
    )

    objective = _check_str(doc.get("objective", "energy"), "objective")
    _expect(
        objective in OBJECTIVES,
        f"objective must be one of {OBJECTIVES}",
        "objective",
    )

    deadline_s = doc.get("deadline_s")
    if deadline_s is not None:
        _expect(
            isinstance(deadline_s, (int, float))
            and not isinstance(deadline_s, bool),
            "deadline_s must be a number of seconds",
            "deadline_s",
        )
        _expect(float(deadline_s) > 0, "deadline_s must be positive", "deadline_s")
        deadline_s = float(deadline_s)
        if max_deadline_s is not None:
            deadline_s = min(deadline_s, float(max_deadline_s))

    return AdviseRequest(
        kernel=kernel,
        size_exp=size_exp,
        schemes=canonical_schemes(schemes),
        placement=placement,
        frequencies=canonical_frequencies(canon_freqs),
        measure=measure,
        refine=refine,
        objective=objective,
        deadline_s=deadline_s,
    )
