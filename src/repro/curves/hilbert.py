"""Hilbert curve with the paper's Table I base orientation.

The Hilbert order eliminates Morton's inter-quadrant jumps by rotating and
reflecting the traversal inside quadrants.  Lam & Shapiro's iterative
formulation (referenced in the paper, Section II-B) scans coordinate bit
*pairs* from most to least significant; each pair contributes two index
bits and triggers a swap and/or bitwise complement of the remaining
low-order bits.  The work is therefore **linear** in the number of address
bits — the extra cost that, per the paper, outweighs Hilbert's locality
advantage on real hardware.  This repository models that cost with
operation counts (:mod:`repro.curves.cost`), not with how fast NumPy
evaluates the index.

Base orientation: Table I (HO) with ``y`` major::

        x=0  x=1
   y=0   0    1
   y=1   3    2

The one encoder here is the **batch LUT path**
(:func:`hilbert_encode_batch` / :func:`hilbert_decode_batch`), which both
:class:`HilbertCurve` (``ho``) and
:class:`~repro.curves.hilbert_table.TableHilbertCurve` (``holut``) call.
It composes the 4-state machine below over ``W`` bit pairs at a time: one
fancy-index gather per ``W`` levels instead of ~10 vector ops per level,
cutting both pass count and temporary traffic.  The composed tables
depend only on the chunk width, so they are built once per process
(module-level memo) and shared by every instance at every order.  The
Lam–Shapiro scan and the one-level machine loop are the independent
references it is checked against (``tests/curves/hilbert_oracles.py``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import CurveDomainError
from repro.curves.base import SpaceFillingCurve, register_curve
from repro.util.bits import ilog2, is_pow2

__all__ = ["HilbertCurve", "hilbert_encode_batch", "hilbert_decode_batch"]

_I64 = np.int64
_U64 = np.uint64

# The one-level 4-state machine: each refinement level consumes one bit
# pair (yb, xb), emits the quadrant's rank along the curve and moves to
# the state of the sub-curve in that quadrant.  State 0 is the paper's
# Table I orientation; ``tests/curves/test_hilbert_table.py`` re-derives
# the tables from the geometric definition, and
# :mod:`repro.curves.hilbert_table` adds their inverses.

# Indexed by state*4 + (yb*2 + xb): rank of the quadrant along the curve.
RANK_TABLE = np.array(
    [
        0, 1, 3, 2,  # state 0: Table I base orientation
        0, 3, 1, 2,  # state 1: transpose of state 0
        2, 1, 3, 0,  # state 2: anti-transpose of state 0
        2, 3, 1, 0,  # state 3: 180-degree rotation of state 0
    ],
    dtype=np.int64,
)

# Indexed by state*4 + (yb*2 + xb): state of the sub-curve in that quadrant.
NEXT_TABLE = np.array(
    [
        1, 0, 2, 0,
        0, 3, 1, 1,
        2, 2, 0, 3,
        3, 1, 3, 2,
    ],
    dtype=np.int64,
)

#: Bit pairs consumed per composed-LUT step.  5 pairs -> 4096-entry int64
#: tables (32 KiB each), small enough to stay L1/L2-resident while large
#: enough that a 20-bit order needs only 4 gathers.
_CHUNK_W = 5

# Composed multi-level tables, keyed by chunk width (NOT by curve order:
# the same width-w tables serve every order, so all HilbertCurve instances
# in a process share one build).
_PAIR_LUT_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}


def _pair_luts(w: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Composed ``w``-level FSM tables ``(rank, next, pos, pos_next)``.

    Encode tables are indexed by ``(state << 2w) | (y_chunk << w) | x_chunk``
    and yield the ``2w``-bit rank chunk / successor state; decode tables are
    indexed by ``(state << 2w) | rank_chunk`` and yield ``(y_chunk << w) |
    x_chunk`` / successor state.  Built by running the one-level machine
    (:data:`RANK_TABLE` / :data:`NEXT_TABLE`) ``w`` steps over every
    (state, chunk) combination at once.
    """
    cached = _PAIR_LUT_CACHE.get(w)
    if cached is not None:
        return cached
    if w > 7:  # rank/pos values must fit the uint16 tables below
        raise ValueError(f"chunk width {w} exceeds the uint16 table range")
    n_idx = 4 << (2 * w)
    idx = np.arange(n_idx, dtype=_I64)
    state = idx >> (2 * w)
    yc = (idx >> w) & ((1 << w) - 1)
    xc = idx & ((1 << w) - 1)
    rank = np.zeros(n_idx, dtype=_I64)
    st = state.copy()
    for bit in range(w - 1, -1, -1):
        q = st * 4 + ((yc >> bit) & 1) * 2 + ((xc >> bit) & 1)
        rank = (rank << 2) | RANK_TABLE[q]
        st = NEXT_TABLE[q]
    # For a fixed state the chunk -> rank map is a bijection, so scattering
    # through (state, rank) fills the decode tables exactly once each.
    dec_idx = (state << (2 * w)) | rank
    pos = np.zeros(n_idx, dtype=_I64)
    pos_next = np.zeros(n_idx, dtype=_I64)
    pos[dec_idx] = (yc << w) | xc
    pos_next[dec_idx] = st
    # uint16 tables: every value fits (rank and pos < 4**w <= 4096 at the
    # widths in use, states < 4), and the narrower gather measurably beats
    # int64 on streams larger than cache (~20% on the matmul benchmark).
    luts = tuple(t.astype(np.uint16) for t in (rank, st, pos, pos_next))
    _PAIR_LUT_CACHE[w] = luts
    return luts


def _chunk_schedule(order: int) -> list[int]:
    """Chunk widths MSB->LSB: the remainder chunk first, then full ones."""
    rem = order % _CHUNK_W
    return ([rem] if rem else []) + [_CHUNK_W] * (order // _CHUNK_W)


def hilbert_encode_batch(y: np.ndarray, x: np.ndarray, order: int) -> np.ndarray:
    """Map coordinate arrays to Hilbert indices, ``_CHUNK_W`` levels per step."""
    ya = y.astype(_I64, copy=False)
    xa = x.astype(_I64, copy=False)
    state = np.zeros(ya.shape, dtype=_I64)
    d = np.zeros(ya.shape, dtype=_I64)
    bit = order
    for w in _chunk_schedule(order):
        rank_lut, next_lut, _, _ = _pair_luts(w)
        bit -= w
        mask = (1 << w) - 1
        idx = (state << (2 * w)) | (((ya >> bit) & mask) << w) | ((xa >> bit) & mask)
        d = (d << (2 * w)) | rank_lut[idx]
        state = next_lut[idx]
    return d.astype(_U64)


def hilbert_decode_batch(d: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`hilbert_encode_batch`: indices to ``(y, x)``."""
    da = d.astype(_I64, copy=False)
    state = np.zeros(da.shape, dtype=_I64)
    y = np.zeros(da.shape, dtype=_I64)
    x = np.zeros(da.shape, dtype=_I64)
    bit = order
    for w in _chunk_schedule(order):
        _, _, pos_lut, pnext_lut = _pair_luts(w)
        bit -= w
        mask = (1 << w) - 1
        idx = (state << (2 * w)) | ((da >> (2 * bit)) & ((1 << (2 * w)) - 1))
        pos = pos_lut[idx]
        y = (y << w) | (pos >> w)
        x = (x << w) | (pos & mask)
        state = pnext_lut[idx]
    return y.astype(_U64), x.astype(_U64)


class HilbertCurve(SpaceFillingCurve):
    """Hilbert curve on a power-of-two grid (the paper's HO scheme)."""

    code = "ho"
    display_name = "Hilbert order"

    def _validate_side(self, side: int) -> None:
        if not is_pow2(side):
            raise CurveDomainError(
                f"Hilbert order requires a power-of-two side, got {side}"
            )

    @property
    def order(self) -> int:
        """Recursion depth: ``log2(side)`` quadrant refinements."""
        return ilog2(self._side)

    def _encode_array(self, y, x):
        return hilbert_encode_batch(y, x, self.order)

    def _decode_array(self, d):
        return hilbert_decode_batch(d, self.order)


register_curve("ho", HilbertCurve)
