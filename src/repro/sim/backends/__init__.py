"""Pluggable kernel backends for the stream-order cache replay.

:class:`~repro.sim.fastcache.FastCache` replays set-associative levels,
and on the compiled backend fully-associative ones of up to
:data:`~repro.sim.fastcache.FULLY_ASSOC_KERNEL_MAX_WAYS` ways, through one
stream-order kernel, and :func:`~repro.sim.fastcache.make_cache` routes
each level by the backend this registry resolves.  Two backends exist:

* ``"python"`` — the kernel's source, in Python
  (:data:`repro.sim.backends.kernels.python_stream_replay`).  Always
  available.  :func:`~repro.sim.fastcache.make_cache` runs set-associative
  levels, and one-set levels of at most
  :data:`~repro.sim.fastcache.PYTHON_REFERENCE_MAX_WAYS` ways, on the
  reference :class:`~repro.sim.cache.Cache` loop under this backend: same
  algorithm, on plain lists, and faster than the kernel without a
  compiler.
* ``"c"`` — the kernel transcribed to C in :mod:`repro._clib`, compiled
  on demand with the system compiler and loaded via ctypes, with
  fixed-associativity copies for 8, 16 and 20 ways.  Available when a
  working ``cc``/``gcc``/``clang`` is on PATH (or the library is cached).

``"auto"`` (the default everywhere) is ``"c"`` exactly when the library
loads, else ``"python"``; resolving it builds the library, so a caller
that resolves ``"auto"`` up front pays the compile there.  Requesting
``"c"`` on a host that cannot provide it degrades gracefully to
``"python"`` with a :class:`~repro.robust.DegradedRunWarning` rather than
erroring, so a pinned ``--backend c`` config file stays runnable
everywhere.  ``"python"`` and unknown names never touch the library.
Backends are identified by plain strings precisely so the choice
survives pickling into :mod:`repro.sim.parallel`'s pool workers; every
worker re-resolves the string locally (and would itself degrade,
bit-identically, if its environment lacks the compiled path).

Both backends are *exact*: the equivalence, golden and chaos suites run
bit-identically under each, with the reference
:class:`~repro.sim.cache.Cache` as the differential oracle.
"""

from __future__ import annotations

import warnings

from repro import _clib
from repro.errors import SimulationError
from repro.robust import DegradedRunWarning
from repro.sim.backends import kernels

__all__ = [
    "BACKENDS",
    "available_backends",
    "backend_available",
    "get_replay_kernel",
    "resolve_backend",
]

#: Every backend name the axis accepts (besides ``"auto"``).
BACKENDS = ("python", "c")


def backend_available(backend: str) -> bool:
    """Whether ``backend`` can actually run on this host."""
    if backend == "python":
        return True
    if backend == "c":
        return _clib.load() is not None
    return False


def available_backends() -> list[str]:
    """Names of the backends usable on this host (``python`` always)."""
    return [b for b in BACKENDS if backend_available(b)]


def resolve_backend(backend: str | None, warn: bool = True) -> str:
    """Map a requested backend to one this host can run.

    ``None``/``"auto"`` silently picks ``"c"`` when the C library loads
    and ``"python"`` otherwise.  ``"c"`` on a host where it does not load
    degrades to ``"python"``, emitting a
    :class:`~repro.robust.DegradedRunWarning` unless ``warn`` is false;
    an unknown name raises :class:`SimulationError` before the library
    is touched.  The returned name is always concrete (never ``"auto"``)
    and always available, so it can be stored, pickled to workers, and
    re-resolved idempotently.
    """
    if backend is None or backend == "auto":
        return "c" if backend_available("c") else "python"
    if backend not in BACKENDS:
        raise SimulationError(
            f"backend must be one of {('auto',) + BACKENDS}, got {backend!r}"
        )
    if not backend_available(backend):
        if warn:
            warnings.warn(
                f"sim.backends: backend={backend!r} requested but no usable "
                f"C toolchain ({_clib.unavailable_reason()}); degrading to "
                f"the bit-identical 'python' backend",
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
    if backend == "c":
        if not backend_available("c"):
            raise SimulationError(
                "c backend selected but no library loaded; "
                "resolve_backend() first"
            )
        return _clib.stream_replay
    raise SimulationError(f"unknown backend {backend!r}")
