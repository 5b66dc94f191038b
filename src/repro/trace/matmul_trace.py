"""Streaming memory traces of the naive multiplication kernel.

Reproduces, access for access, the reference stream of the paper's C kernel

    for i:  for j:  for k:  C[i][j] += A[i][k] * B[k][j];

over arbitrary element layouts: per inner iteration one read of ``A`` and
one read of ``B`` (in that order), and per ``(i, j)`` one write of ``C``
(the scalar accumulator is register-allocated, as any optimizing compiler
does, so ``C`` traffic is hoisted out of the ``k`` loop).

The generator is chunked by output row: each yielded
:class:`~repro.trace.events.TraceChunk` covers one (or part of one) row of
``C``, keeping peak memory at ``O(n * cols_per_chunk)`` while the full
trace is ``2 n^3 + n^2`` accesses.

``rows`` restricts generation to selected output rows — the paper's own
device (Section IV-A) for making instrumented runs affordable: "restricting
the codes to complete a small number of rows in the output matrix ...
ensuring that several complete traversals of one entire input matrix have
been performed".
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.curves.base import SpaceFillingCurve, get_curve
from repro.errors import SimulationError
from repro.trace.events import TAG_A, TAG_B, TAG_C, TraceChunk

__all__ = ["MatmulTraceSpec", "naive_matmul_trace", "trace_length"]

#: Byte size of a double-precision element (the paper's element type).
ELEM_BYTES = 8


@dataclass(frozen=True)
class MatmulTraceSpec:
    """Address-space layout of one multiplication's three matrices.

    The three operands are placed at page-aligned, non-overlapping base
    addresses (A, then B, then C), mirroring three separate allocations.
    """

    n: int
    scheme_a: str
    scheme_b: str
    scheme_c: str
    elem_bytes: int = ELEM_BYTES

    @classmethod
    def uniform(cls, n: int, scheme: str) -> "MatmulTraceSpec":
        """All three matrices in the same ordering (the paper's setup)."""
        return cls(n, scheme, scheme, scheme)

    @property
    def matrix_bytes(self) -> int:
        """Size of one operand in bytes."""
        return self.n * self.n * self.elem_bytes

    def base(self, which: str) -> int:
        """Base byte address of matrix ``'a'``, ``'b'`` or ``'c'``."""
        spacing = -(-self.matrix_bytes // 4096) * 4096  # page-align
        return {"a": 0, "b": spacing, "c": 2 * spacing}[which]


def trace_length(
    n: int, rows: Sequence[int] | None = None, loop_order: str = "ijk"
) -> int:
    """Number of accesses the generator will produce.

    ``ijk`` emits ``2n + 1`` accesses per middle iteration (A/B read pairs
    plus the hoisted C write); ``ikj``/``jki`` emit ``1 + 3n`` (one
    single-operand read, then per inner iteration a stream read and a C
    read-modify-write).
    """
    if loop_order not in ("ijk", "ikj", "jki"):
        raise SimulationError(f"loop_order must be ijk/ikj/jki, got {loop_order!r}")
    r = n if rows is None else len(rows)
    per_mid = 2 * n + 1 if loop_order == "ijk" else 3 * n + 1
    return r * n * per_mid


def naive_matmul_trace(
    spec: MatmulTraceSpec,
    rows: Sequence[int] | None = None,
    cols_per_chunk: int = 64,
    loop_order: str = "ijk",
) -> Iterator[TraceChunk]:
    """Yield the naive kernel's reference stream for the given layout spec.

    Parameters
    ----------
    spec:
        Problem size and per-matrix orderings.
    rows:
        Outer-loop iterations to generate (default: all).  For ``ijk`` and
        ``ikj`` these are output rows ``i``; for ``jki`` they are output
        columns ``j`` — the paper's few-rows sampling device either way.
    cols_per_chunk:
        Middle-loop iterations per emitted chunk.
    loop_order:
        ``"ijk"`` (the paper's kernel), ``"ikj"`` (rank-1 updates: C rows
        stream per (i, k)) or ``"jki"`` (column-sweep: A columns stream
        per (j, k)).  The three orders impose very different reference
        streams on the same layouts — the ABL-LOOP ablation.
    """
    n = spec.n
    if cols_per_chunk <= 0:
        raise SimulationError(f"cols_per_chunk must be positive, got {cols_per_chunk}")
    if loop_order not in ("ijk", "ikj", "jki"):
        raise SimulationError(f"loop_order must be ijk/ikj/jki, got {loop_order!r}")
    row_list = list(range(n)) if rows is None else [int(r) for r in rows]
    if any(r < 0 or r >= n for r in row_list):
        raise SimulationError(f"row indices out of range for n={n}")
    if loop_order != "ijk":
        yield from _non_ijk_trace(spec, row_list, cols_per_chunk, loop_order)
        return

    curve_a = get_curve(spec.scheme_a, n)
    curve_b = get_curve(spec.scheme_b, n)
    curve_c = get_curve(spec.scheme_c, n)
    eb = np.uint64(spec.elem_bytes)
    base_a = np.uint64(spec.base("a"))
    base_b = np.uint64(spec.base("b"))
    base_c = np.uint64(spec.base("c"))

    ks = np.arange(n, dtype=np.uint64)
    # B's address table for a block of columns is rebuilt per chunk (it
    # depends only on j), while A's row addresses depend only on i.
    for i in row_list:
        a_row_addr = base_a + curve_a.encode(np.uint64(i), ks) * eb
        for j0 in range(0, n, cols_per_chunk):
            js = np.arange(j0, min(j0 + cols_per_chunk, n), dtype=np.uint64)
            m = len(js)
            addr = np.empty(m * (2 * n + 1), dtype=np.uint64)
            is_write = np.zeros_like(addr, dtype=bool)
            tag = np.empty_like(addr, dtype=np.uint8)
            # Per j: 2n interleaved reads A(i,k), B(k,j) for k = 0..n-1,
            # then the C write.  Each operand is assembled in place in
            # its strided view of the chunk, so the only chunk-sized
            # temporary is B's index table.
            addr_view = addr.reshape(m, 2 * n + 1)
            addr_view[:, 0 : 2 * n : 2] = a_row_addr
            b_view = addr_view[:, 1 : 2 * n : 2]
            b_view[...] = curve_b.encode(ks[None, :], js[:, None])
            b_view *= eb
            b_view += base_b
            addr_view[:, 2 * n] = base_c + curve_c.encode(np.uint64(i), js) * eb
            tag_view = tag.reshape(m, 2 * n + 1)
            tag_view[:, 0 : 2 * n : 2] = TAG_A
            tag_view[:, 1 : 2 * n : 2] = TAG_B
            tag_view[:, 2 * n] = TAG_C
            is_write.reshape(m, 2 * n + 1)[:, 2 * n] = True
            yield TraceChunk(addr, is_write, tag)


def _non_ijk_trace(
    spec: MatmulTraceSpec,
    outer_list: list[int],
    per_chunk: int,
    loop_order: str,
) -> Iterator[TraceChunk]:
    """ikj and jki reference streams.

    * ``ikj``: per (i, k): one read of A(i, k), then for each j a read of
      B(k, j) interleaved with a read-modify-write of C(i, j) — C is not
      register-allocatable here, so it streams every inner iteration.
    * ``jki``: per (j, k): one read of B(k, j), then for each i a read of
      A(i, k) interleaved with the C(i, j) read-modify-write.
    """
    n = spec.n
    curve_a = get_curve(spec.scheme_a, n)
    curve_b = get_curve(spec.scheme_b, n)
    curve_c = get_curve(spec.scheme_c, n)
    eb = np.uint64(spec.elem_bytes)
    base_a = np.uint64(spec.base("a"))
    base_b = np.uint64(spec.base("b"))
    base_c = np.uint64(spec.base("c"))
    inner = np.arange(n, dtype=np.uint64)

    for outer in outer_list:
        for m0 in range(0, n, per_chunk):
            mids = np.arange(m0, min(m0 + per_chunk, n), dtype=np.uint64)
            m = len(mids)
            if loop_order == "ikj":
                i, ks = np.uint64(outer), mids
                single_addr = base_a + curve_a.encode(i, ks) * eb
                single_tag = TAG_A
                stream_addr = base_b + curve_b.encode(ks[:, None], inner[None, :]) * eb
                stream_tag = TAG_B
                c_addr = base_c + curve_c.encode(i, inner) * eb
                c_block = np.broadcast_to(c_addr, (m, n))
            else:  # jki
                j, ks = np.uint64(outer), mids
                single_addr = base_b + curve_b.encode(ks, j) * eb
                single_tag = TAG_B
                stream_addr = base_a + curve_a.encode(inner[None, :], ks[:, None]) * eb
                stream_tag = TAG_A
                c_addr = base_c + curve_c.encode(inner, j) * eb
                c_block = np.broadcast_to(c_addr, (m, n))

            # Layout per middle iteration: 1 single read, then n x
            # (stream read, C read, C write).
            width = 1 + 3 * n
            addr = np.empty(m * width, dtype=np.uint64)
            tag = np.empty_like(addr, dtype=np.uint8)
            is_write = np.zeros(m * width, dtype=bool)
            av = addr.reshape(m, width)
            tv = tag.reshape(m, width)
            wv = is_write.reshape(m, width)
            av[:, 0] = single_addr
            tv[:, 0] = single_tag
            av[:, 1::3] = stream_addr
            tv[:, 1::3] = stream_tag
            av[:, 2::3] = c_block
            tv[:, 2::3] = TAG_C
            av[:, 3::3] = c_block
            tv[:, 3::3] = TAG_C
            wv[:, 3::3] = True
            yield TraceChunk(addr, is_write, tag)
