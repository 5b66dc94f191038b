"""The compiled hot-loop kernels, in a numba-compatible subset of Python.

One kernel carries the whole set-associative engine:
:func:`_stream_replay_py` replays a chunk **in trace order** against the
canonical MRU-first stacks, computing each access's set index on the fly
— exactly the reference :class:`~repro.sim.cache.Cache` loop, compiled.
It needs no preprocessing (no partition by set, no collapse of repeated
lines): with a native inner loop such passes would dominate the
runtime, so the fastest formulation is the simplest one.

The function is written so that the identical source runs three ways:

* plain Python (the ``"python"`` backend's kernel) — slow, but exercised
  by the test suite on small geometries, so the kernel's logic is
  differentially validated even on hosts without a compiler or numba;
* ``numba.njit`` — :data:`numba_stream_replay` below, compiled lazily the
  first time a ``backend="numba"`` cache runs a chunk;
* C — the same loop transcribed in :mod:`repro.sim.backends.cbackend`,
  compiled on demand with the system C compiler.

Array contract (shared by all three): ``slots`` is the engine's full
``(n_sets, assoc)`` uint64 state with ``_EMPTY`` sentinels packed at each
row's tail (canonical MRU-first stacks), ``dirty`` a uint8 0/1 view of
the same shape, ``set_mask`` the uint64 ``n_sets - 1`` mask, and
``lines`` / ``is_write`` / ``miss_flags`` parallel arrays over the chunk.
``slots``, ``dirty`` and ``miss_flags`` are mutated in place; the return
value is ``(evictions, writebacks)``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HAS_NUMBA",
    "NUMBA_IMPORT_ERROR",
    "numba_stream_replay",
    "python_stream_replay",
]

#: Sentinel for an empty way (mirrors ``repro.sim.cache.EMPTY_LINE``).
_EMPTY = np.uint64(0xFFFFFFFFFFFFFFFF)


def _stream_replay_py(slots, dirty, set_mask, lines, is_write, miss_flags):
    assoc = slots.shape[1]
    empty = _EMPTY
    evictions = 0
    writebacks = 0
    for i in range(lines.shape[0]):
        line = lines[i]
        w = is_write[i]
        r = line & set_mask
        # Hit scan over the occupied prefix (MRU-first, empties at the
        # tail, so the first empty way ends the search).
        p = -1
        for k in range(assoc):
            v = slots[r, k]
            if v == line:
                p = k
                break
            if v == empty:
                break
        if p >= 0:
            d = dirty[r, p] | w
            for k in range(p, 0, -1):
                slots[r, k] = slots[r, k - 1]
                dirty[r, k] = dirty[r, k - 1]
            slots[r, 0] = line
            dirty[r, 0] = d
        else:
            miss_flags[i] = 1
            if slots[r, assoc - 1] != empty:
                evictions += 1
                if dirty[r, assoc - 1] != 0:
                    writebacks += 1
            for k in range(assoc - 1, 0, -1):
                slots[r, k] = slots[r, k - 1]
                dirty[r, k] = dirty[r, k - 1]
            slots[r, 0] = line
            dirty[r, 0] = w
    return evictions, writebacks


#: The pure-Python kernel — always available, used by the tests to pin
#: the compiled kernels' semantics without requiring numba or a compiler.
python_stream_replay = _stream_replay_py

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    HAS_NUMBA = True
    NUMBA_IMPORT_ERROR = None
    #: JIT-compiled kernel.  ``cache=True`` persists the compilation
    #: across processes (the spawn workers of ``sim.parallel`` pay the
    #: compile once per host, not once per worker); ``nogil`` lets future
    #: thread-based callers overlap chunks.
    numba_stream_replay = numba.njit(cache=True, nogil=True)(_stream_replay_py)
except ImportError as _exc:
    HAS_NUMBA = False
    NUMBA_IMPORT_ERROR = str(_exc)
    numba_stream_replay = None
