"""The stream-replay kernel: the reference source of the compiled one.

One kernel carries the whole set-associative engine:
:func:`python_stream_replay` replays a chunk **in trace order** against
the canonical MRU-first stacks, computing each access's set index on the
fly — exactly the reference :class:`~repro.sim.cache.Cache` loop, in
flat arrays.  It needs no preprocessing (no partition by set, no
collapse of repeated lines): with a native inner loop such passes would
dominate the runtime, so the fastest formulation is the simplest one.

The same algorithm runs two ways:

* plain Python (the ``"python"`` backend's kernel) — slow, but exercised
  by the test suite on small geometries, so the kernel's logic is
  differentially validated even on hosts without a compiler;
* C — the same loop transcribed in :mod:`repro._clib`, compiled on
  demand with the system C compiler, once per fixed associativity the
  repo's workloads replay (8, 16, 20 ways) and once generic; this
  source stays the reference it is tested against
  (``tests/sim/test_backends.py``).

Array contract (shared by both)::

    stream_replay(slots, dirty, set_mask, lines, is_write, tags,
                  miss_lines, miss_flags, miss_tags,
                  tag_accesses, tag_read_misses, tag_write_misses)
        -> (n_miss, evictions, writebacks, writes, write_misses)

* ``slots`` is the engine's full ``(n_sets, assoc)`` uint64 state with
  ``_EMPTY`` sentinels packed at each row's tail (canonical MRU-first
  stacks), ``dirty`` a uint8 0/1 view of the same shape and
  ``set_mask`` the uint64 ``n_sets - 1`` mask; both arrays are updated
  in place.
* ``lines`` (uint64), ``is_write`` (uint8 0/1) and ``tags`` (uint8) are
  the chunk, ``n`` accesses long.
* ``miss_lines`` (uint64), ``miss_flags`` (uint8) and ``miss_tags``
  (uint8) are outputs at least ``n`` long: the kernel writes the chunk's
  misses to their first ``n_miss`` entries, in trace order.
* ``tag_accesses``, ``tag_read_misses`` and ``tag_write_misses`` are the
  level's 256-entry int64 per-tag counters, incremented in place.

The returned counts are the chunk's misses, evictions, writebacks, write
accesses and write misses, so the caller does its accounting without
another pass over the chunk or its misses.
"""

from __future__ import annotations

import numpy as np

__all__ = ["python_stream_replay"]

#: Sentinel for an empty way (mirrors ``repro.sim.cache.EMPTY_LINE``).
_EMPTY = np.uint64(0xFFFFFFFFFFFFFFFF)


def python_stream_replay(
    slots, dirty, set_mask, lines, is_write, tags,
    miss_lines, miss_flags, miss_tags,
    tag_accesses, tag_read_misses, tag_write_misses,
):
    assoc = slots.shape[1]
    empty = _EMPTY
    n_miss = 0
    evictions = 0
    writebacks = 0
    writes = 0
    write_misses = 0
    for i in range(lines.shape[0]):
        line = lines[i]
        w = is_write[i]
        t = tags[i]
        r = line & set_mask
        tag_accesses[t] += 1
        if w:
            writes += 1
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
            miss_lines[n_miss] = line
            miss_flags[n_miss] = w
            miss_tags[n_miss] = t
            n_miss += 1
            if w:
                write_misses += 1
                tag_write_misses[t] += 1
            else:
                tag_read_misses[t] += 1
            if slots[r, assoc - 1] != empty:
                evictions += 1
                if dirty[r, assoc - 1] != 0:
                    writebacks += 1
            for k in range(assoc - 1, 0, -1):
                slots[r, k] = slots[r, k - 1]
                dirty[r, k] = dirty[r, k - 1]
            slots[r, 0] = line
            dirty[r, 0] = w
    return n_miss, evictions, writebacks, writes, write_misses

