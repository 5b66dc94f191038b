"""Pluggable kernel backends for the stream-order cache replay.

:class:`~repro.sim.fastcache.FastCache` replays set-associative levels,
and on compiled backends fully-associative ones of up to
:data:`~repro.sim.fastcache.FULLY_ASSOC_KERNEL_MAX_WAYS` ways, through one
stream-order kernel, and :func:`~repro.sim.fastcache.make_cache` routes
each level by the backend this registry resolves.  Three backends exist:

* ``"python"`` — the kernel's source, un-jitted
  (:data:`repro.sim.backends.kernels.python_stream_replay`).  Always
  available.  :func:`~repro.sim.fastcache.make_cache` runs set-associative
  levels on the reference :class:`~repro.sim.cache.Cache` loop under this
  backend: same algorithm, on plain lists, and faster than the kernel
  without a JIT.
* ``"numba"`` — the same source JIT-compiled to native code
  (:data:`repro.sim.backends.kernels.numba_stream_replay`).  Available when
  the optional ``numba`` dependency (the ``compiled`` extra) imports.
* ``"c"`` — the kernel transcribed to C, compiled on demand with the
  system compiler and loaded via ctypes
  (:mod:`repro.sim.backends.cbackend`).  Available when a working
  ``cc``/``gcc``/``clang`` is on PATH.

``"auto"`` (the default everywhere) resolves to the fastest available
backend (numba > c > python).  Requesting a specific compiled backend on
a host that cannot provide it degrades gracefully to ``"python"`` with a
:class:`~repro.robust.DegradedRunWarning` rather than erroring, so a
pinned ``--backend numba`` config file stays runnable everywhere.
Backends are identified by plain strings precisely so the choice
survives pickling into :mod:`repro.sim.parallel`'s spawn workers; every
worker re-resolves the string locally (and would itself degrade,
bit-identically, if its environment lacks the compiled path).

All backends are *exact*: the equivalence, golden and chaos suites run
bit-identically under every one of them, with the reference
:class:`~repro.sim.cache.Cache` as the differential oracle.
"""

from __future__ import annotations

import warnings

from repro.errors import SimulationError
from repro.robust import DegradedRunWarning
from repro.sim.backends import cbackend, kernels

__all__ = [
    "BACKENDS",
    "available_backends",
    "backend_available",
    "get_replay_kernel",
    "resolve_backend",
]

#: Every backend name the axis accepts (besides ``"auto"``).
BACKENDS = ("python", "numba", "c")

#: Compiled backends in auto-selection preference order.
_COMPILED_PREFERENCE = ("numba", "c")


def backend_available(backend: str) -> bool:
    """Whether ``backend`` can actually run on this host."""
    if backend == "python":
        return True
    if backend == "numba":
        return kernels.HAS_NUMBA
    if backend == "c":
        return cbackend.c_available()
    return False


def available_backends() -> list[str]:
    """Names of the backends usable on this host (``python`` always)."""
    return [b for b in BACKENDS if backend_available(b)]


def _unavailable_reason(backend: str) -> str:
    if backend == "numba":
        return f"numba is not importable ({kernels.NUMBA_IMPORT_ERROR})"
    return f"no usable C toolchain ({cbackend.c_unavailable_reason()})"


def resolve_backend(backend: str | None, warn: bool = True) -> str:
    """Map a requested backend to one this host can run.

    ``None``/``"auto"`` silently picks the fastest available backend.  A
    named compiled backend that is unavailable degrades to ``"python"``,
    emitting a :class:`~repro.robust.DegradedRunWarning` unless ``warn``
    is false; an unknown name raises :class:`SimulationError`.  The
    returned name is always concrete (never ``"auto"``) and always
    available, so it can be stored, pickled to workers, and re-resolved
    idempotently.
    """
    if backend is None or backend == "auto":
        for candidate in _COMPILED_PREFERENCE:
            if backend_available(candidate):
                return candidate
        return "python"
    if backend not in BACKENDS:
        raise SimulationError(
            f"backend must be one of {('auto',) + BACKENDS}, got {backend!r}"
        )
    if not backend_available(backend):
        if warn:
            warnings.warn(
                f"sim.backends: backend={backend!r} requested but "
                f"{_unavailable_reason(backend)}; degrading to the "
                f"bit-identical 'python' backend",
                DegradedRunWarning,
                stacklevel=2,
            )
        return "python"
    return backend


def get_replay_kernel(backend: str):
    """The stream-replay kernel for a resolved backend.

    Raises for a backend that has not been resolved through
    :func:`resolve_backend` first.
    """
    if backend == "python":
        return kernels.python_stream_replay
    if backend == "numba":
        if kernels.numba_stream_replay is None:
            raise SimulationError(
                "numba backend selected but numba is unavailable; "
                "resolve_backend() first"
            )
        return kernels.numba_stream_replay
    if backend == "c":
        if not cbackend.c_available():
            raise SimulationError(
                "c backend selected but no library loaded; "
                "resolve_backend() first"
            )
        return cbackend.c_stream_replay
    raise SimulationError(f"unknown backend {backend!r}")
