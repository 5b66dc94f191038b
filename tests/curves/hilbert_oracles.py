"""Reference Hilbert encoders the batch LUT path is checked against.

Both are independent of :func:`repro.curves.hilbert.hilbert_encode_batch`
and bit-identical to it:

* the one-level 4-state machine loop (:func:`encode_table` /
  :func:`decode_table`) — two table lookups per bit pair, the machine the
  batch path composes ``W`` levels at a time;
* the Lam–Shapiro scan (:func:`encode_scan` / :func:`decode_scan`) — one
  vectorized pass per bit pair with boolean-mask rotation bookkeeping,
  sharing no table with the batch path at all.

``benchmarks/bench_curve_encode.py`` times the scan against the batch
path.
"""

import numpy as np

from repro.curves.hilbert_table import (
    NEXT_TABLE,
    POS_NEXT_TABLE,
    POS_TABLE,
    RANK_TABLE,
)

_I64 = np.int64
_U64 = np.uint64


def encode_table(y: np.ndarray, x: np.ndarray, order: int) -> np.ndarray:
    """Hilbert indices by running the one-level machine ``order`` times."""
    ya = np.asarray(y).astype(_I64, copy=False)
    xa = np.asarray(x).astype(_I64, copy=False)
    state = np.zeros(ya.shape, dtype=_I64)
    d = np.zeros(ya.shape, dtype=_I64)
    for bit in range(order - 1, -1, -1):
        yb = (ya >> bit) & 1
        xb = (xa >> bit) & 1
        idx = state * 4 + yb * 2 + xb
        d = (d << 2) | RANK_TABLE[idx]
        state = NEXT_TABLE[idx]
    return d.astype(_U64)


def decode_table(d: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_table`."""
    da = np.asarray(d).astype(_I64, copy=False)
    state = np.zeros(da.shape, dtype=_I64)
    y = np.zeros(da.shape, dtype=_I64)
    x = np.zeros(da.shape, dtype=_I64)
    for bit in range(order - 1, -1, -1):
        rank = (da >> (2 * bit)) & 3
        idx = state * 4 + rank
        pos = POS_TABLE[idx]
        y = (y << 1) | (pos >> 1)
        x = (x << 1) | (pos & 1)
        state = POS_NEXT_TABLE[idx]
    return y.astype(_U64), x.astype(_U64)


# The classic iterative algorithm operates on an (X, Y) pair where the
# first coordinate selects the *second* index bit of each pair.  Mapping
# X := y (major), Y := x reproduces Table I exactly; the swap/flip steps
# below are the Lam–Shapiro rotation bookkeeping.


def encode_scan(y: np.ndarray, x: np.ndarray, side: int) -> np.ndarray:
    """Hilbert indices by the Lam–Shapiro bit-pair scan."""
    X = y.astype(_I64, copy=True)
    Y = x.astype(_I64, copy=True)
    d = np.zeros(X.shape, dtype=_I64)
    s = side >> 1
    while s > 0:
        rx = ((X & s) > 0).astype(_I64)
        ry = ((Y & s) > 0).astype(_I64)
        d += (s * s) * ((3 * rx) ^ ry)
        # Rotate the partial coordinates so the next refinement level
        # sees its quadrant in base orientation.
        lower = ry == 0
        flip = lower & (rx == 1)
        X[flip] = s - 1 - X[flip]
        Y[flip] = s - 1 - Y[flip]
        tmp = X[lower].copy()
        X[lower] = Y[lower]
        Y[lower] = tmp
        s >>= 1
    return d.astype(_U64)


def decode_scan(d: np.ndarray, side: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_scan`."""
    t = d.astype(_I64, copy=True)
    X = np.zeros(t.shape, dtype=_I64)
    Y = np.zeros(t.shape, dtype=_I64)
    s = 1
    while s < side:
        rx = 1 & (t >> 1)
        ry = 1 & (t ^ rx)
        # Undo the rotation applied during encoding at this level.
        lower = ry == 0
        flip = lower & (rx == 1)
        X[flip] = s - 1 - X[flip]
        Y[flip] = s - 1 - Y[flip]
        tmp = X[lower].copy()
        X[lower] = Y[lower]
        Y[lower] = tmp
        X += s * rx
        Y += s * ry
        t >>= 2
        s <<= 1
    return X.astype(_U64), Y.astype(_U64)
