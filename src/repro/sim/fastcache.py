"""Exact no-prefetch cache levels: offline Mattson pass, stream-replay kernel.

Both cache classes take line segments only (``access_lines``):
byte-address chunks are lowered before they reach any level
(:func:`repro.trace.ir.lower_chunks`).  The reference
:class:`~repro.sim.cache.Cache` walks the trace one access at a time in
Python (~1 µs/access), which bounds it to scaled problem sizes.
:class:`FastCache` removes that bound for the no-prefetch configuration
with two exact strategies over one carried state (per-set canonical
MRU-first stacks plus per-way dirty bits):

* The **stream-replay kernel** (:func:`repro._clib.stream_replay`) walks
  the chunk in trace order against the carried stacks, computing each
  access's set index on the fly — the reference loop, in C.  It costs
  O(assoc) per access, so it runs every set-associative level and every
  fully-associative one of at most :data:`FULLY_ASSOC_KERNEL_MAX_WAYS`
  ways.  In the same pass it writes the chunk's miss stream and
  increments the per-tag counters, so this path runs no NumPy pass over
  the chunk or its misses after the kernel (no ``flatnonzero``, no
  :func:`~repro.sim.cache.finalize_chunk_stats`).
* The **offline Mattson pass** decides a fully-associative
  (``n_sets == 1``) chunk entirely by the stack-distance criterion
  (Mattson et al., 1970 — see :mod:`repro.sim.stackdist`): under true
  LRU with demand-only fills, an access hits iff fewer than ``assoc``
  distinct lines were touched since the previous access to its line.
  The carried LRU stack is prepended as a pseudo-trace (LRU-first, so
  replaying it reconstructs the stack), per-access reuse distances come
  from the vectorized previous-occurrence + distinct-count pass
  :func:`repro.sim.stackdist.reuse_distances`, and hits are simply
  ``distance < assoc``.  Evictions, dirty-bit propagation, writebacks
  and the carried state all fall out of residency segments (install →
  eviction) computed with ``bincount``/``reduceat`` — no per-access
  work at all.  It costs O(N log N) per chunk at any associativity, so
  it takes the wide directories where the kernel's scan is too deep,
  and every fully-associative level wider than
  :data:`PYTHON_REFERENCE_MAX_WAYS` ways on a host where the C library
  does not load.  Its miss indices go through
  :func:`~repro.sim.cache.finalize_chunk_stats`, the reference loop's
  accounting.

The engine is *exact*, not approximate: it maintains the same per-set
MRU order and per-line dirty bits as the reference simulator, so
:class:`CacheStats` (including per-tag miss attribution), the returned
miss stream, and the carried state at chunk boundaries are bit-identical
and multi-gigabyte traces can stream through chunk by chunk.  Both paths
keep the same canonical state, so a snapshot taken on one loads into the
other.  ``tests/sim/test_fastcache_equiv.py`` enforces this
differentially, with the library and without it, and on both sides of
the threshold.

:func:`make_cache` is the one place a level's path is chosen, from the
spec, the prefetch setting and whether :func:`repro._clib.load` finds
the C library — every host runs exactly one path per level:

==========  =================================  ========================
C library   configuration                      path
==========  =================================  ========================
either      ``prefetch="next-line"``           reference :class:`Cache`
loaded      ``n_sets >= 2``                    kernel
loaded      ``n_sets == 1``, ``assoc <= 512``  kernel
loaded      ``n_sets == 1``, ``assoc > 512``   Mattson pass
not loaded  ``n_sets >= 2``                    reference :class:`Cache`
not loaded  ``n_sets == 1``, ``assoc <= 16``   reference :class:`Cache`
not loaded  ``n_sets == 1``, ``assoc > 16``    Mattson pass
==========  =================================  ========================

Every row but the reference loop's is a :class:`FastCache`, which asks
the library once, when it is built.  Next-line prefetch installs depend
on another set's state, which the offline pass cannot see; the reference
loop honors it exactly.  Without the library the reference loop is the
kernel's algorithm on plain lists, which beats the Mattson pass on a
narrow one-set level too.
"""

from __future__ import annotations

import numpy as np

from repro import _clib
from repro.errors import SimulationError
from repro.obs import OBS, phase_span
from repro.sim.cache import (
    EMPTY_LINE as _EMPTY,
    Cache,
    CacheStats,
    finalize_chunk_stats,
    normalize_access,
)
from repro.sim.config import CacheSpec
from repro.sim.stackdist import reuse_distances

__all__ = ["FastCache", "make_cache"]

#: Widest fully-associative level replayed through the C stream-replay
#: kernel; wider ones take the Mattson pass.  It is the largest power of
#: two at which the C kernel was no slower than Mattson on every stream
#: of ``benchmarks/bench_cache_sim.py``'s crossover sweep (``"crossover"``
#: in ``BENCH_cache_sim.json``), in every sweep taken: on the n=512
#: row-major stream the two tie from 1024 to 2048 ways, so single sweeps
#: read 512, 1024 or 2048.
FULLY_ASSOC_KERNEL_MAX_WAYS = 512

#: Widest fully-associative level replayed on the reference :class:`Cache`
#: loop where the C library does not load; wider ones take the Mattson
#: pass.  On the cachegrind study's D1 streams (n=128, five middle rows,
#: rm/mo/ho; best of 3, two sweeps on a 2-CPU host) the loop took
#: 0.66–0.77 of the Mattson pass's time at 8 ways and 0.85–0.98 at 16,
#: but 0.98–1.26 at 32 and 1.10–1.80 at 64.
PYTHON_REFERENCE_MAX_WAYS = 16


class FastCache:
    """Drop-in replacement for :class:`Cache` (no prefetch).

    Mirrors the reference interface — ``spec``, ``stats``, ``prefetch``,
    :meth:`access_lines`, :meth:`reset`, ``resident_lines`` — and produces
    identical results.
    State is carried across calls, so multi-gigabyte traces stream
    through chunk by chunk exactly as with the reference loop.
    The path is fixed when the level is built, by the routing table
    (module docstring): without the C library only the Mattson pass
    runs, so a set-associative level is refused.  Build levels through
    :func:`make_cache`, which never asks for one and keeps narrow
    one-set levels on the reference loop there.
    """

    def __init__(self, spec: CacheSpec, prefetch: str = "none"):
        if prefetch != "none":
            raise SimulationError(
                f"FastCache supports prefetch='none' only, got {prefetch!r}; "
                "use make_cache() for automatic fallback"
            )
        compiled = _clib.load() is not None
        if spec.n_sets > 1 and not compiled:
            raise SimulationError(
                "FastCache needs the C library for set-associative level "
                f"{spec.name!r} ({_clib.unavailable_reason()}); use "
                "make_cache(), which builds the reference loop there"
            )
        self.spec = spec
        self.prefetch = prefetch
        self._replay = _clib.stream_replay
        # The routing table's one-set rows (module docstring).
        self._mattson = spec.n_sets == 1 and (
            not compiled or spec.assoc > FULLY_ASSOC_KERNEL_MAX_WAYS
        )
        # The cache.* counters' labels: the level and the replay path.
        self._labels = {
            "level": spec.name, "backend": "c" if compiled else "python",
        }
        self.stats = CacheStats()
        self._set_mask = spec.n_sets - 1
        # Row = one set's LRU stack, MRU first, _EMPTY ways at the tail.
        self._stack = np.full((spec.n_sets, spec.assoc), _EMPTY, dtype=np.uint64)
        self._dirty = np.zeros((spec.n_sets, spec.assoc), dtype=bool)

    def reset(self) -> None:
        """Clear contents and statistics."""
        self.stats = CacheStats()
        self._stack.fill(_EMPTY)
        self._dirty.fill(False)

    def state_snapshot(self) -> dict:
        """Picklable contents (canonical MRU stacks) + statistics."""
        return {
            "kind": "fast",
            "stack": self._stack.copy(),
            "dirty": self._dirty.copy(),
            "stats": self.stats.copy(),
        }

    def load_state(self, snapshot: dict) -> None:
        """Restore a :meth:`state_snapshot` taken from a same-spec cache."""
        if snapshot.get("kind") != "fast":
            raise SimulationError(
                f"cannot load a {snapshot.get('kind')!r} snapshot into FastCache"
            )
        if snapshot["stack"].shape != self._stack.shape:
            raise SimulationError("snapshot geometry mismatch")
        self._stack = snapshot["stack"].copy()
        self._dirty = snapshot["dirty"].copy()
        self.stats = snapshot["stats"].copy()

    def access_lines(
        self,
        lines: np.ndarray,
        is_write: np.ndarray,
        tags: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run a line stream through the cache.

        Returns ``(miss_lines, miss_is_write, miss_tags)`` — the demand
        stream for the next level, in trace order.  Inputs are checked
        and converted by :func:`~repro.sim.cache.normalize_access`, so
        the miss stream is uint64/bool.
        """
        lines, is_write, tags = normalize_access(lines, is_write, tags)
        n = len(lines)
        if n == 0:
            return lines[:0], is_write[:0], tags[:0]

        if self._mattson:
            with phase_span("fastcache.mattson", level=self.spec.name, n=n):
                miss_idx, evictions, writebacks = self._run_mattson(
                    lines, is_write
                )
            st = self.stats
            st.evictions += evictions
            st.writebacks += writebacks
            out = finalize_chunk_stats(st, lines, is_write, tags, miss_idx)
        else:
            with phase_span("fastcache.replay", level=self.spec.name, n=n):
                out = self._run_replay(lines, is_write, tags)
        n_miss = len(out[0])
        m = OBS.metrics
        if m is not None:
            m.count("cache.accesses", n, **self._labels)
            m.count("cache.misses", n_miss, **self._labels)
            m.count("cache.hits", n - n_miss, **self._labels)
        return out

    # ------------------------------------------------------------------
    # Mattson path (one set): decide the whole chunk offline.
    # ------------------------------------------------------------------

    def _run_mattson(
        self, lines: np.ndarray, is_write: np.ndarray
    ) -> tuple[np.ndarray, int, int]:
        assoc = self.spec.assoc
        n = len(lines)

        # Replaying the carried stack LRU-first as pseudo-accesses
        # reconstructs the exact LRU order, so the real accesses' reuse
        # distances (hence hits) come out right; the pseudo write flag
        # carries each resident line's dirty bit into its residency.
        stack = self._stack[0]
        resident = stack != _EMPTY
        pseudo_lines = stack[resident][::-1]
        pseudo_write = self._dirty[0][resident][::-1]
        q = len(pseudo_lines)

        all_lines = np.concatenate([pseudo_lines, lines])
        all_write = np.concatenate([pseudo_write, is_write])
        m = q + n

        dist = reuse_distances(all_lines)
        # COLD is int64-max, so first touches compare as misses too.
        miss = dist[q:] >= assoc
        miss_idx = np.flatnonzero(miss)
        n_miss = len(miss_idx)

        # Occupancy only grows (by installs) until it pins at assoc;
        # every install beyond that evicts exactly one line.
        evictions = max(0, q + n_miss - assoc)
        occ_after = min(q + n_miss, assoc)

        # Residency segments: group accesses by line (the stable argsort
        # from the distance pass orders each group by position); every
        # install — pseudo-access or real miss — starts a segment, and a
        # group's first access is always an install, so segments never
        # straddle groups.  A segment containing a write is dirty.
        order = np.argsort(all_lines, kind="stable")
        sl = all_lines[order]
        install = np.empty(m, dtype=bool)
        install[:q] = True
        install[q:] = miss
        inst_s = install[order]
        starts = np.flatnonzero(inst_s)
        has_write = np.logical_or.reduceat(all_write[order], starts)

        # Distinct-line groups, each with its last access position and
        # the residency id of its final segment.
        new_group = np.empty(m, dtype=bool)
        new_group[0] = True
        np.not_equal(sl[1:], sl[:-1], out=new_group[1:])
        gstart = np.flatnonzero(new_group)
        gend = np.append(gstart[1:] - 1, m - 1)
        last_pos = order[gend]
        res_id = np.cumsum(inst_s) - 1
        last_res = res_id[gend]

        # Survivors: the occ_after most recently used lines, MRU-first.
        mru = np.argsort(-last_pos, kind="stable")[:occ_after]
        final_lines = sl[gstart[mru]]
        final_dirty = has_write[last_res[mru]]

        # Every non-surviving residency ended in an eviction; the dirty
        # ones were written back.
        writebacks = int(has_write.sum()) - int(final_dirty.sum())

        self._stack[0].fill(_EMPTY)
        self._dirty[0].fill(False)
        self._stack[0, :occ_after] = final_lines
        self._dirty[0, :occ_after] = final_dirty
        return miss_idx, evictions, writebacks

    # ------------------------------------------------------------------
    # Kernel path: one trace-order pass through the C kernel.
    # ------------------------------------------------------------------

    def _run_replay(
        self, lines: np.ndarray, is_write: np.ndarray, tags: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Replay the chunk in trace order through the C kernel.

        The kernel (:func:`repro._clib.stream_replay`) works directly
        on the engine's canonical MRU-first stacks, computing each
        access's set index on the fly — no partition, no collapse, no
        gather/scatter.  ``dirty`` is passed as a uint8 *view* of the
        bool state (same memory, no copy), so the kernel's in-place
        updates land in the carried state directly.  In the same pass it
        writes the miss stream into buffers allocated here and increments
        the per-tag counters of :attr:`stats` in place, so nothing walks
        the chunk or its misses afterwards; the miss stream comes back as
        views of the buffers' first ``n_miss`` entries.
        """
        if not self._stack.flags.c_contiguous:  # e.g. after load_state
            self._stack = np.ascontiguousarray(self._stack)
        if not self._dirty.flags.c_contiguous:
            self._dirty = np.ascontiguousarray(self._dirty)
        n = len(lines)
        miss_lines = np.empty(n, dtype=np.uint64)
        miss_w = np.empty(n, dtype=bool)
        miss_tags = np.empty(n, dtype=np.uint8)
        st = self.stats
        n_miss, evictions, writebacks, writes, write_misses = self._replay(
            self._stack,
            self._dirty.view(np.uint8),
            np.uint64(self._set_mask),
            lines,
            is_write.view(np.uint8),
            tags,
            miss_lines,
            miss_w.view(np.uint8),
            miss_tags,
            st.tag_accesses,
            st.tag_read_misses,
            st.tag_write_misses,
        )
        st.accesses += n
        st.write_accesses += writes
        st.hits += n - n_miss
        st.misses += n_miss
        st.read_misses += n_miss - write_misses
        st.write_misses += write_misses
        st.evictions += evictions
        st.writebacks += writebacks
        return miss_lines[:n_miss], miss_w[:n_miss], miss_tags[:n_miss]

    @property
    def resident_lines(self) -> int:
        """Number of lines currently cached (for tests)."""
        return int(np.count_nonzero(self._stack != _EMPTY))


def make_cache(spec: CacheSpec, prefetch: str = "none") -> Cache | FastCache:
    """Construct one cache level on the path the routing table picks
    (module docstring) for this host.  Every path is exact, so the
    choice changes speed, never results.
    """
    if prefetch != "none":
        return Cache(spec, prefetch)
    if _clib.load() is not None or (
        spec.n_sets == 1 and spec.assoc > PYTHON_REFERENCE_MAX_WAYS
    ):
        return FastCache(spec)
    return Cache(spec)
