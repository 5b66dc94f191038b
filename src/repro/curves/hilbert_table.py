"""Table-driven Hilbert curve (finite-state-machine formulation).

The classic *fast* Hilbert implementation replaces the Lam–Shapiro
rotation arithmetic with a 4-state machine: each refinement level
consumes one bit pair ``(yb, xb)``, emits the quadrant's rank along the
curve, and moves to the state describing the sub-curve's orientation.
Per level that is two table lookups — the formulation the paper's
index-cost discussion ablates as ``holut`` (it trades the scan's ALU work
for table-lookup latency; on real hardware its 16-entry tables live in L1
permanently).  That cost is modelled by operation counts
(:mod:`repro.curves.cost`), and :mod:`repro.sim.analytic` maps ``holut``
to ``ho``.

:class:`TableHilbertCurve` therefore encodes through the same composed
tables as :class:`~repro.curves.hilbert.HilbertCurve`
(:func:`~repro.curves.hilbert.hilbert_encode_batch`, the machine below
applied ``W`` levels per gather): one encoder, the same ordering.  The
one-level loop survives as a test oracle in
``tests/curves/hilbert_oracles.py``.  The machine's tables are defined in
:mod:`repro.curves.hilbert`; this module re-exports them and adds their
inverses.  State 0 is the paper's Table I orientation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CurveDomainError
from repro.curves.base import SpaceFillingCurve, register_curve
from repro.curves.hilbert import (
    NEXT_TABLE,
    RANK_TABLE,
    hilbert_decode_batch,
    hilbert_encode_batch,
)
from repro.util.bits import ilog2, is_pow2

__all__ = ["TableHilbertCurve", "RANK_TABLE", "NEXT_TABLE", "POS_TABLE", "POS_NEXT_TABLE"]

# Inverses for decoding — indexed by state*4 + rank.
# POS_TABLE gives (yb*2 + xb); POS_NEXT_TABLE the sub-curve state.
POS_TABLE = np.zeros(16, dtype=np.int64)
POS_NEXT_TABLE = np.zeros(16, dtype=np.int64)
for _state in range(4):
    for _pos in range(4):
        _rank = RANK_TABLE[_state * 4 + _pos]
        POS_TABLE[_state * 4 + _rank] = _pos
        POS_NEXT_TABLE[_state * 4 + _rank] = NEXT_TABLE[_state * 4 + _pos]


class TableHilbertCurve(SpaceFillingCurve):
    """Hilbert curve via the 4-state lookup-table machine.

    Produces exactly the same ordering as
    :class:`~repro.curves.hilbert.HilbertCurve`, through the same composed
    tables; it keeps its own code as the ablation's name for the
    table-driven formulation.
    """

    code = "holut"
    display_name = "Hilbert order (table-driven)"

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


register_curve("holut", TableHilbertCurve)
