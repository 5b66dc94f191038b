"""The C replay kernel's oracle: its source, in Python.

:func:`python_stream_replay` is the loop
:func:`repro._clib.stream_replay` transcribes statement for statement,
under the array contract documented there: one chunk, replayed in trace
order against the canonical MRU-first stacks, each access's set index
computed on the fly.  ``tests/sim/test_backends.py`` holds the C kernel
to it at every fixed-associativity copy, and it to the reference
:class:`~repro.sim.cache.Cache`, directly and through
:func:`oracle_kernel_cache`, so the kernel's algorithm and
:class:`~repro.sim.fastcache.FastCache`'s kernel path are checked on
every host, with a compiler or without.
"""

import pytest

from repro import _clib
from repro.sim import CacheSpec, FastCache
from repro.sim.cache import EMPTY_LINE


def python_stream_replay(
    slots, dirty, set_mask, lines, is_write, tags,
    miss_lines, miss_flags, miss_tags,
    tag_accesses, tag_read_misses, tag_write_misses,
):
    assoc = slots.shape[1]
    empty = EMPTY_LINE
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


def oracle_kernel_cache(spec: CacheSpec) -> FastCache:
    """A :class:`FastCache` for ``spec`` on the kernel path, with
    :func:`python_stream_replay` as its kernel, on any host: the level
    fixes its path and kernel when it is built."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_clib, "load", lambda: True)
        mp.setattr(_clib, "stream_replay", python_stream_replay)
        return FastCache(spec)
