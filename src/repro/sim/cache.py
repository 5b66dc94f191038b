"""Exact set-associative LRU cache simulation.

This is the substrate standing in for the paper's real silicon (and for
valgrind's cachegrind): a write-allocate, write-back, true-LRU
set-associative cache operating on cache-line numbers.  Every level takes
line segments: traces reach it already lowered from byte addresses to
line numbers (:func:`repro.trace.ir.lower_chunks`, one vectorized shift
per chunk).  The per-access replacement state is inherently sequential,
so the inner loop is carefully tuned pure Python (plain lists,
``list.index``, no per-access NumPy indexing) — about a microsecond per
access, which bounds the problem sizes the exact simulator is used for
(the analytic model in :mod:`repro.sim.analytic` covers paper-scale
sizes, calibrated against this simulator at scaled sizes).

Misses are returned as a new line stream so levels compose into a
hierarchy.  Per-tag miss attribution (A/B/C matrix) is accumulated with
vectorized ``bincount`` over the collected miss indices, giving the
cachegrind-style breakdown at negligible cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.obs import OBS
from repro.sim.config import CacheSpec

__all__ = ["CacheStats", "Cache", "finalize_chunk_stats", "normalize_access"]

_N_TAGS = 256

#: Sentinel for an empty way; no realistic byte address maps to this line.
EMPTY_LINE = np.uint64(0xFFFFFFFFFFFFFFFF)


def normalize_access(
    lines: np.ndarray,
    is_write: np.ndarray,
    tags: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check one ``access_lines`` batch and bring it to the replay dtypes.

    Lines come back as contiguous uint64 (a negative int64 line wraps,
    and ``-1`` is :data:`EMPTY_LINE`, which raises), write flags as
    contiguous bool, and tags as contiguous uint8 (zeros when omitted; a
    tag outside 0..255 raises); uint64/bool/uint8 input is not copied.
    Every check runs before the caller touches any state, so a rejected
    batch changes nothing.  Shared by :class:`Cache` and
    :class:`~repro.sim.fastcache.FastCache`, so both backends accept and
    reject the same streams and return miss streams in the same dtypes;
    the compiled kernel reads the uint8 tags directly.
    """
    n = len(lines)
    if len(is_write) != n:
        raise SimulationError("lines and is_write length mismatch")
    if tags is None:
        tags = np.zeros(n, dtype=np.uint8)
    elif len(tags) != n:
        raise SimulationError("lines and tags length mismatch")
    else:
        tags = np.asarray(tags)
        if n and tags.dtype != np.uint8 and (
            tags.dtype.kind not in "biu"
            or tags.min() < 0
            or tags.max() >= _N_TAGS
        ):
            raise SimulationError(
                f"tags must be integers in 0..{_N_TAGS - 1}"
            )
        tags = np.ascontiguousarray(tags, dtype=np.uint8)
    lines = np.ascontiguousarray(lines, dtype=np.uint64)
    # Per-tag attribution indexes with ~is_write: integer 0/1 flags
    # would invert to 254/255 there.
    is_write = np.ascontiguousarray(is_write, dtype=bool)
    if n and lines.max() == EMPTY_LINE:
        raise SimulationError("line number collides with the empty-way sentinel")
    return lines, is_write, tags


def finalize_chunk_stats(
    st: "CacheStats",
    lines: np.ndarray,
    is_write: np.ndarray,
    tags: np.ndarray,
    miss_idx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold one chunk's miss indices into ``st``; return the miss stream.

    ``miss_idx`` must be ascending so the returned ``(miss_lines,
    miss_is_write, miss_tags)`` stream preserves trace order for the next
    level.  Used by the reference loop and by
    :class:`~repro.sim.fastcache.FastCache`'s Mattson pass; the
    stream-replay kernel does the same accounting in its own pass, and
    ``tests/sim/test_fastcache_equiv.py`` holds the two equal.
    """
    n = len(lines)
    n_miss = len(miss_idx)
    st.accesses += n
    st.misses += n_miss
    st.hits += n - n_miss
    if n:
        st.write_accesses += int(is_write.sum())
        st.tag_accesses += np.bincount(tags, minlength=_N_TAGS)
    if not n_miss:
        # Zero-copy empty views keep dtypes without per-call allocations.
        return lines[:0], is_write[:0], tags[:0]
    miss_lines = lines[miss_idx]
    miss_w = is_write[miss_idx]
    miss_tags = tags[miss_idx]
    wcount = int(miss_w.sum())
    st.write_misses += wcount
    st.read_misses += n_miss - wcount
    st.tag_read_misses += np.bincount(miss_tags[~miss_w], minlength=_N_TAGS)
    st.tag_write_misses += np.bincount(miss_tags[miss_w], minlength=_N_TAGS)
    return miss_lines, miss_w, miss_tags


@dataclass
class CacheStats:
    """Aggregate counters of one cache instance.

    ``tag_*`` arrays are indexed by trace tag (0..255); ``read_misses`` and
    ``write_misses`` partition ``misses`` by demand access type.  Writeback
    traffic (dirty evictions) is counted separately — it is bandwidth, not
    demand misses.
    """

    accesses: int = 0
    write_accesses: int = 0
    hits: int = 0
    misses: int = 0
    read_misses: int = 0
    write_misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    prefetches: int = 0
    tag_accesses: np.ndarray = field(default_factory=lambda: np.zeros(_N_TAGS, dtype=np.int64))
    tag_read_misses: np.ndarray = field(default_factory=lambda: np.zeros(_N_TAGS, dtype=np.int64))
    tag_write_misses: np.ndarray = field(default_factory=lambda: np.zeros(_N_TAGS, dtype=np.int64))

    @property
    def miss_rate(self) -> float:
        """Misses per access (0 when no accesses yet)."""
        return self.misses / self.accesses if self.accesses else 0.0

    def copy(self) -> "CacheStats":
        """Independent deep copy (the tag arrays are duplicated)."""
        return CacheStats(
            accesses=self.accesses,
            write_accesses=self.write_accesses,
            hits=self.hits,
            misses=self.misses,
            read_misses=self.read_misses,
            write_misses=self.write_misses,
            evictions=self.evictions,
            writebacks=self.writebacks,
            prefetches=self.prefetches,
            tag_accesses=self.tag_accesses.copy(),
            tag_read_misses=self.tag_read_misses.copy(),
            tag_write_misses=self.tag_write_misses.copy(),
        )

    def merge(self, other: "CacheStats") -> None:
        """Accumulate ``other`` into ``self`` (for per-core aggregation)."""
        self.accesses += other.accesses
        self.write_accesses += other.write_accesses
        self.hits += other.hits
        self.misses += other.misses
        self.read_misses += other.read_misses
        self.write_misses += other.write_misses
        self.evictions += other.evictions
        self.writebacks += other.writebacks
        self.prefetches += other.prefetches
        self.tag_accesses += other.tag_accesses
        self.tag_read_misses += other.tag_read_misses
        self.tag_write_misses += other.tag_write_misses


class Cache:
    """One level of write-allocate, write-back, true-LRU cache.

    ``prefetch="next-line"`` adds a miss-triggered next-line prefetcher:
    on every demand miss, line+1 is installed as well (at LRU position, so
    a useless prefetch is the first victim).  Prefetches are counted in
    ``stats.prefetches`` and do not appear as demand misses — matching how
    hardware prefetchers hide Morton/row-major streaming misses on real
    machines (the effect behind the paper's cachegrind MO/HO ratio).
    """

    def __init__(self, spec: CacheSpec, prefetch: str = "none"):
        if prefetch not in ("none", "next-line"):
            raise SimulationError(
                f"prefetch must be 'none' or 'next-line', got {prefetch!r}"
            )
        self.spec = spec
        self.prefetch = prefetch
        self.stats = CacheStats()
        self._set_mask = spec.n_sets - 1
        # MRU-first line lists, one per set.
        self._sets: list[list[int]] = [[] for _ in range(spec.n_sets)]
        self._dirty: set[int] = set()

    def reset(self) -> None:
        """Clear contents and statistics."""
        self.stats = CacheStats()
        self._sets = [[] for _ in range(self.spec.n_sets)]
        self._dirty = set()

    def state_snapshot(self) -> dict:
        """Picklable contents (MRU order, dirty lines) + statistics."""
        return {
            "kind": "exact",
            "sets": [list(s) for s in self._sets],
            "dirty": set(self._dirty),
            "stats": self.stats.copy(),
        }

    def load_state(self, snapshot: dict) -> None:
        """Restore a :meth:`state_snapshot` taken from a same-spec cache."""
        if snapshot.get("kind") != "exact":
            raise SimulationError(
                f"cannot load a {snapshot.get('kind')!r} snapshot into Cache"
            )
        if len(snapshot["sets"]) != self.spec.n_sets:
            raise SimulationError("snapshot set count mismatch")
        self._sets = [list(s) for s in snapshot["sets"]]
        self._dirty = set(snapshot["dirty"])
        self.stats = snapshot["stats"].copy()

    def access_lines(
        self,
        lines: np.ndarray,
        is_write: np.ndarray,
        tags: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run a line stream through the cache.

        Returns ``(miss_lines, miss_is_write, miss_tags)`` — the demand
        stream for the next level.  Inputs are checked and converted by
        :func:`normalize_access`, so the miss stream is uint64/bool.
        """
        lines, is_write, tags = normalize_access(lines, is_write, tags)
        n = len(lines)
        if n == 0:
            # Nothing to simulate: skip the tolist()/sum()/bincount work.
            return lines[:0], is_write[:0], tags[:0]

        set_mask = self._set_mask
        assoc = self.spec.assoc
        sets = self._sets
        dirty = self._dirty
        next_line_prefetch = self.prefetch == "next-line"
        miss_idx: list[int] = []
        evictions = 0
        writebacks = 0
        prefetches = 0

        line_list = lines.tolist()
        write_list = is_write.tolist()
        append_miss = miss_idx.append
        for i in range(n):
            line = line_list[i]
            s = sets[line & set_mask]
            if line in s:
                pos = s.index(line)
                if pos:
                    s.insert(0, s.pop(pos))
            else:
                append_miss(i)
                s.insert(0, line)
                if len(s) > assoc:
                    victim = s.pop()
                    evictions += 1
                    if victim in dirty:
                        dirty.discard(victim)
                        writebacks += 1
                if next_line_prefetch:
                    pline = line + 1
                    ps = sets[pline & set_mask]
                    if pline not in ps:
                        prefetches += 1
                        if len(ps) >= assoc:
                            victim = ps.pop()
                            evictions += 1
                            if victim in dirty:
                                dirty.discard(victim)
                                writebacks += 1
                        # Near-LRU position: a useless prefetch dies early.
                        ps.append(pline)
            if write_list[i]:
                dirty.add(line)

        st = self.stats
        st.evictions += evictions
        st.writebacks += writebacks
        st.prefetches += prefetches
        out = finalize_chunk_stats(
            st, lines, is_write, tags, np.asarray(miss_idx, dtype=np.int64)
        )
        m = OBS.metrics
        if m is not None:
            labels = {"level": self.spec.name, "backend": "python"}
            m.count("cache.accesses", n, **labels)
            m.count("cache.misses", len(miss_idx), **labels)
            m.count("cache.hits", n - len(miss_idx), **labels)
        return out

    @property
    def resident_lines(self) -> int:
        """Number of lines currently cached (for tests)."""
        return sum(len(s) for s in self._sets)
