"""Exact LRU stack distances (Mattson's algorithm), fully vectorized.

For a fully-associative LRU cache, an access hits iff its *reuse
distance* — the number of distinct lines touched since the previous
access to the same line — is smaller than the cache's line capacity.
One pass over a trace therefore yields the miss count of **every**
capacity at once (Mattson et al., 1970): the miss-ratio curve that the
analytic model's ``mpi(u)`` summarizes with three parameters.

Two implementations are provided, both over a line-number stream (a
trace lowered by :func:`repro.trace.ir.lower_chunks`):

* :func:`reuse_distances` — the vectorized offline pass (no per-access
  Python).  One stable argsort links every access to its previous and
  next occurrence; the distinct-line count of each reuse window then
  falls out of two counting passes (an ``np.bincount`` cumulative sum
  and a merge-doubling "count smaller to the left" kernel).  This is the
  same machinery :mod:`repro.sim.fastcache` uses to decide hits and
  misses without walking the trace.
* :func:`reuse_distances_fenwick` — the original Fenwick-tree loop,
  O(N log N) with a tight per-access Python body.  Kept as an
  independent oracle; the test suite cross-validates the two against
  each other and against the exact LRU cache simulator.

The offline distance identity: let ``p`` be the previous occurrence of
access ``t``'s line.  Every access in the open window ``(p, t)`` whose
*next* occurrence is also inside the window is a duplicate (its line
reappears), so the distinct-line count is the window length minus the
number of such duplicates:

``d(t) = (t - p - 1) - F(t) + W(p)``

where ``F(t) = #{a : next(a) < t}`` (prefix sums of a bincount over next
pointers) and ``W(p) = #{a < p : next(a) < next(p)}`` — for ``a < p``
with ``next(a)`` in ``(p, t)``, that next occurrence is the *first*
touch of its line inside the window, not a duplicate, and ``next(p) =
t`` makes the condition exact.  ``W`` is an inversion-style count
computed by :func:`_count_smaller_before`.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "reuse_distances",
    "reuse_distances_fenwick",
    "miss_curve",
    "COLD",
]

#: Sentinel distance for first-touch (cold) accesses.
COLD = np.iinfo(np.int64).max


def _count_smaller_before(v: np.ndarray) -> np.ndarray:
    """For each ``i``, count ``j < i`` with ``v[j] < v[i]``, vectorized.

    Bottom-up merge-doubling: at level ``l`` the (padded) array is viewed
    as blocks of ``2**(l+1)`` elements whose halves are each sorted from
    the previous level.  Every element that sits in a right half binary-
    searches the sorted left half of its own block — all blocks at once,
    via a single flat ``searchsorted`` over block-offset keys — and
    accumulates the hit count.  Summed over the log2(n) levels this
    counts exactly the smaller-elements-to-the-left, with O(n log n)
    total work and no per-element Python.
    """
    m = len(v)
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    v = np.ascontiguousarray(v, dtype=np.int64)
    mp = 1 << max(int(m - 1).bit_length(), 1)
    pad = np.int64(int(v.max()) + 1)  # sorts after every real value
    span = int(pad) + 1  # per-block key offset; values are trace
    # positions, so block * span stays far below the int64 ceiling
    orig = np.full(mp, pad, dtype=np.int64)
    orig[:m] = v
    buf = orig.copy()
    out = np.zeros(mp, dtype=np.int64)
    pos = np.arange(mp, dtype=np.int64)
    level = 0
    while (1 << level) < mp:
        half = 1 << level
        nblk = mp >> (level + 1)
        blocks = buf.reshape(nblk, 2 * half)
        left = blocks[:, :half]
        q = np.flatnonzero((pos & half) != 0)  # right-half positions
        blk = q >> (level + 1)
        lkeys = (left + (np.arange(nblk, dtype=np.int64) * span)[:, None]).ravel()
        r = np.searchsorted(lkeys, orig[q] + blk * span, side="left")
        out[q] += r - blk * half
        blocks.sort(axis=1)
        level += 1
    return out[:m]


def reuse_distances(lines: np.ndarray) -> np.ndarray:
    """LRU stack distance of every access of a line-number stream.

    Returns an ``int64`` array: entry ``i`` is the number of distinct
    lines accessed since the previous touch of ``lines[i]``, or
    :data:`COLD` for first touches.  Pure NumPy (see the module docstring
    for the identity): one stable argsort builds previous/next-occurrence
    links, one bincount prefix sum gives the duplicate counts ``F``, and
    the merge-doubling kernel gives the window-entry corrections ``W``.
    Shared with the offline pass of :class:`~repro.sim.fastcache.FastCache`.
    """
    lines = np.ascontiguousarray(lines, dtype=np.uint64)
    m = len(lines)
    if m == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(lines, kind="stable")
    sl = lines[order]
    same = np.empty(m, dtype=bool)
    same[0] = False
    np.equal(sl[1:], sl[:-1], out=same[1:])
    prev = np.full(m, -1, dtype=np.int64)
    prev[order[1:]] = np.where(same[1:], order[:-1], -1)
    nxt = np.full(m, m, dtype=np.int64)
    nxt[order[:-1]] = np.where(same[1:], order[1:], m)
    # F[t] = #{a : next(a) < t}; only real (< m) next pointers count.
    f = np.zeros(m, dtype=np.int64)
    np.cumsum(np.bincount(nxt[nxt < m], minlength=m)[:-1], out=f[1:])
    # W is only ever read at positions p that *have* a next occurrence
    # (p = prev of some access), and positions without one never satisfy
    # next(a) < next(p) either — so the kernel runs on the subsequence
    # of linked accesses only.
    w = np.zeros(m, dtype=np.int64)
    sub = np.flatnonzero(nxt < m)
    if len(sub):
        w[sub] = _count_smaller_before(nxt[sub])
    t = np.arange(m, dtype=np.int64)
    return np.where(prev >= 0, t - prev - 1 - f + w[prev], COLD)


class _Fenwick:
    __slots__ = ("n", "tree")

    def __init__(self, n: int):
        self.n = n
        self.tree = [0] * (n + 1)

    def add(self, i: int, delta: int) -> None:
        i += 1
        tree = self.tree
        n = self.n
        while i <= n:
            tree[i] += delta
            i += i & (-i)

    def prefix(self, i: int) -> int:
        # Sum of [0, i] inclusive.
        i += 1
        s = 0
        tree = self.tree
        while i > 0:
            s += tree[i]
            i -= i & (-i)
        return s


def reuse_distances_fenwick(lines: np.ndarray) -> np.ndarray:
    """Reference implementation of :func:`reuse_distances` (Fenwick tree).

    A 1 marks each line's most recent occurrence; the reuse distance of
    an access is the count of ones strictly between the line's previous
    occurrence and now.  Per-access Python — kept as an independent
    oracle for the vectorized pass, not for production use.
    """
    n = len(lines)
    out = np.empty(n, dtype=np.int64)
    fen = _Fenwick(n)
    last: dict[int, int] = {}
    line_list = lines.tolist()
    for pos in range(n):
        line = line_list[pos]
        prev = last.get(line)
        if prev is None:
            out[pos] = COLD
        else:
            # Ones at positions (prev, pos): each marks a distinct line's
            # most recent access since prev.
            out[pos] = fen.prefix(pos - 1) - fen.prefix(prev)
            fen.add(prev, -1)
        fen.add(pos, 1)
        last[line] = pos
    return out


def miss_curve(
    distances: np.ndarray, capacities: Iterable[int]
) -> dict[int, int]:
    """Miss counts of fully-associative LRU caches of the given capacities.

    ``capacities`` are line counts; an access with reuse distance ``d``
    hits a capacity-``C`` cache iff ``d < C``.  Cold accesses miss at any
    size.
    """
    d = np.asarray(distances)
    if d.ndim != 1:
        raise SimulationError("distances must be 1-D")
    out = {}
    for c in capacities:
        if c <= 0:
            raise SimulationError(f"capacity must be positive, got {c}")
        out[int(c)] = int((d >= c).sum())
    return out
