"""Table-driven Hilbert: table derivation and equivalence to the
one-level machine loop.

``holut`` and ``ho`` both encode through the composed tables, so comparing
them with each other would check nothing; ``holut`` is held to the
one-level oracle in :mod:`tests.curves.hilbert_oracles` instead.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves import HilbertCurve, get_curve
from repro.curves.hilbert_table import (
    NEXT_TABLE,
    POS_NEXT_TABLE,
    POS_TABLE,
    RANK_TABLE,
    TableHilbertCurve,
)
from repro.errors import CurveDomainError

from tests.curves.hilbert_oracles import decode_table, encode_table


def derive_tables():
    """Re-derive the state machine from the geometric curve definition.

    States are identified by the 2x2 rank pattern of a curve's top-level
    quadrants; children are found by recursing into an order-4 grid.
    """

    def top_pattern(grid):
        h = grid.shape[0] // 2
        mins = np.array(
            [
                [grid[:h, :h].min(), grid[:h, h:].min()],
                [grid[h:, :h].min(), grid[h:, h:].min()],
            ]
        )
        ranks = np.empty(4, dtype=int)
        ranks[np.argsort(mins.ravel())] = np.arange(4)
        return tuple(ranks.tolist())

    states: dict[tuple, int] = {}
    rank_t = {}
    next_t = {}

    def explore(grid):
        p = top_pattern(grid)
        if p in states and all((states[p], qy, qx) in rank_t for qy in (0, 1) for qx in (0, 1)):
            return states[p]
        sid = states.setdefault(p, len(states))
        h = grid.shape[0] // 2
        ranks = np.array(p).reshape(2, 2)
        for qy in (0, 1):
            for qx in (0, 1):
                sub = grid[qy * h : (qy + 1) * h, qx * h : (qx + 1) * h]
                rank_t[(sid, qy, qx)] = int(ranks[qy, qx])
                if h >= 2:
                    next_t[(sid, qy, qx)] = explore(sub - sub.min())
        return sid

    explore(HilbertCurve(16).position_grid().astype(int))
    return states, rank_t, next_t


class TestTables:
    def test_derivation_matches_hardcoded(self):
        states, rank_t, next_t = derive_tables()
        assert len(states) == 4
        for (sid, qy, qx), rank in rank_t.items():
            assert RANK_TABLE[sid * 4 + qy * 2 + qx] == rank
        for (sid, qy, qx), child in next_t.items():
            assert NEXT_TABLE[sid * 4 + qy * 2 + qx] == child

    def test_inverse_tables_consistent(self):
        for state in range(4):
            for pos in range(4):
                rank = RANK_TABLE[state * 4 + pos]
                assert POS_TABLE[state * 4 + rank] == pos
                assert (
                    POS_NEXT_TABLE[state * 4 + rank]
                    == NEXT_TABLE[state * 4 + pos]
                )

    def test_each_state_is_a_permutation(self):
        for state in range(4):
            ranks = sorted(RANK_TABLE[state * 4 : state * 4 + 4].tolist())
            assert ranks == [0, 1, 2, 3]


class TestEquivalence:
    @pytest.mark.parametrize("order", range(1, 8))
    def test_matches_scan_implementation(self, order):
        # The full index domain against the one-level machine loop.
        side = 1 << order
        table = TableHilbertCurve(side)
        d = np.arange(side * side, dtype=np.uint64)
        oy, ox = decode_table(d, order)
        ty, tx = table.decode(d)
        np.testing.assert_array_equal(ty, oy)
        np.testing.assert_array_equal(tx, ox)
        yy, xx = np.meshgrid(
            np.arange(side, dtype=np.uint64),
            np.arange(side, dtype=np.uint64),
            indexing="ij",
        )
        np.testing.assert_array_equal(
            table.position_grid(), encode_table(yy, xx, order)
        )

    @settings(max_examples=30)
    @given(
        order=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_points_agree(self, order, seed):
        side = 1 << order
        rng = np.random.default_rng(seed)
        y = rng.integers(0, side, 32, dtype=np.uint64)
        x = rng.integers(0, side, 32, dtype=np.uint64)
        np.testing.assert_array_equal(
            TableHilbertCurve(side).encode(y, x), encode_table(y, x, order)
        )

    def test_registered(self):
        assert isinstance(get_curve("holut", 8), TableHilbertCurve)

    def test_rejects_non_pow2(self):
        with pytest.raises(CurveDomainError):
            TableHilbertCurve(12)
