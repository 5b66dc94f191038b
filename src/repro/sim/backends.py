"""Which path replays the caches on this host, by name.

:func:`repro._clib.load` makes the choice: a level that needs a kernel
replays on the C library's when it loads, and on the reference loop or
the Mattson pass when it does not (the routing table of
:mod:`repro.sim.fastcache`).  :func:`resolve_backend` names that choice
and builds the library as it does, so a caller can pay the compile
before it times anything.
"""

from __future__ import annotations

from repro import _clib
from repro.errors import SimulationError

__all__ = ["resolve_backend"]


def resolve_backend(backend: str) -> str:
    """``"c"`` when the C library loads here, else ``"python"``.

    ``"auto"`` is the only name accepted: any other raises
    :class:`SimulationError` before the library is touched.
    """
    if backend != "auto":
        raise SimulationError(f"backend must be 'auto', got {backend!r}")
    return "c" if _clib.load() is not None else "python"
