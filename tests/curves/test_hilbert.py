"""Hilbert-specific behaviour: Table I orientation, continuity, locality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves import HilbertCurve, MortonCurve, continuity_profile


class TestPaperArtifacts:
    def test_table1_base_order(self):
        # Table I (HO): 0 1 / 3 2 with y major.
        grid = HilbertCurve(2).position_grid()
        np.testing.assert_array_equal(grid, [[0, 1], [3, 2]])

    def test_top_level_quadrant_order_matches_table1(self):
        # At every size, the four quadrants are visited in Table I's order:
        # top-left, top-right, bottom-right, bottom-left.
        c = HilbertCurve(8)
        ys, xs = c.traversal()
        q = c.npoints // 4
        half = c.side // 2

        def quadrant(i):
            return (ys[i] >= half, xs[i] >= half)

        assert quadrant(0) == (False, False)
        assert quadrant(q) == (False, True)
        assert quadrant(2 * q) == (True, True)
        assert quadrant(3 * q) == (True, False)


class TestContinuity:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
    def test_every_step_is_unit(self, order):
        c = HilbertCurve(1 << order)
        assert np.all(continuity_profile(c) == 1)

    def test_morton_is_not_continuous(self):
        # Sanity contrast: Morton jumps at quadrant boundaries.
        assert continuity_profile(MortonCurve(4)).max() > 1

    def test_endpoints(self):
        # The curve starts at the top-left corner and, with Table I's
        # orientation, ends at the bottom-left corner.
        c = HilbertCurve(16)
        ys, xs = c.traversal()
        assert (ys[0], xs[0]) == (0, 0)
        assert (ys[-1], xs[-1]) == (c.side - 1, 0)


class TestSelfSimilarity:
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_quarters_stay_in_quadrants(self, order):
        c = HilbertCurve(1 << order)
        ys, xs = c.traversal()
        q = c.npoints // 4
        half = c.side // 2
        for i, (ylo, xlo) in enumerate(
            [(False, False), (False, True), (True, True), (True, False)]
        ):
            seg_y = ys[i * q : (i + 1) * q]
            seg_x = xs[i * q : (i + 1) * q]
            assert np.all((seg_y >= half) == ylo)
            assert np.all((seg_x >= half) == xlo)

    def test_locality_beats_morton(self):
        # Hilbert's sliding-window footprint must not exceed Morton's: this
        # is the "moderate improvement over Morton" of Section VI.
        from repro.curves import average_jump

        ho = HilbertCurve(32)
        mo = MortonCurve(32)
        assert average_jump(ho, axis=1) <= average_jump(mo, axis=1) * 1.5


@settings(max_examples=30)
@given(
    order=st.integers(min_value=1, max_value=8),
    d=st.integers(min_value=0, max_value=2**16 - 2),
)
def test_consecutive_indices_adjacent(order, d):
    side = 1 << order
    if d + 1 >= side * side:
        d = side * side - 2
    c = HilbertCurve(side)
    y0, x0 = c.decode(d)
    y1, x1 = c.decode(d + 1)
    assert abs(y0 - y1) + abs(x0 - x1) == 1

class TestBatchLutPath:
    """The composed-LUT batch encoder vs the Lam-Shapiro scan oracle."""

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 12])
    def test_batch_matches_scan(self, order):
        # Orders straddling the chunk width hit every schedule shape:
        # remainder-only, exact multiples, and remainder + full chunks.
        from repro.curves.hilbert import (
            hilbert_decode_batch,
            hilbert_encode_batch,
        )

        from tests.curves.hilbert_oracles import decode_scan, encode_scan

        side = 1 << order
        rng = np.random.default_rng(order)
        n = min(side * side, 4096)
        y = rng.integers(0, side, n, dtype=np.uint64)
        x = rng.integers(0, side, n, dtype=np.uint64)
        d = hilbert_encode_batch(y, x, order)
        np.testing.assert_array_equal(d, encode_scan(y, x, side))
        yb, xb = hilbert_decode_batch(d, order)
        ys, xs = decode_scan(d, side)
        np.testing.assert_array_equal(yb, ys)
        np.testing.assert_array_equal(xb, xs)

    @pytest.mark.parametrize("order", [1, 3, 6, 8])
    def test_full_domain_bijection(self, order):
        side = 1 << order
        c = HilbertCurve(side)
        yy, xx = np.meshgrid(
            np.arange(side, dtype=np.uint64),
            np.arange(side, dtype=np.uint64),
            indexing="ij",
        )
        d = c.encode(yy.ravel(), xx.ravel())
        assert len(np.unique(d)) == side * side
        y2, x2 = c.decode(d)
        np.testing.assert_array_equal(y2, yy.ravel())
        np.testing.assert_array_equal(x2, xx.ravel())

    def test_pair_luts_memoized(self):
        # Satellite: the composed tables are built once per width and
        # shared by every instance — identity, not just equality.
        from repro.curves.hilbert import _CHUNK_W, _pair_luts

        a = _pair_luts(_CHUNK_W)
        HilbertCurve(1 << (2 * _CHUNK_W)).encode(
            np.zeros(4, dtype=np.uint64), np.zeros(4, dtype=np.uint64)
        )
        b = _pair_luts(_CHUNK_W)
        assert all(x is y for x, y in zip(a, b))

    def test_matches_table_machine(self):
        # One level of the composed LUT must reproduce the one-step FSM.
        from repro.curves.hilbert import _pair_luts
        from repro.curves.hilbert_table import NEXT_TABLE, RANK_TABLE

        rank, nxt, pos, pnxt = _pair_luts(1)
        np.testing.assert_array_equal(rank, RANK_TABLE)
        np.testing.assert_array_equal(nxt, NEXT_TABLE)


@settings(max_examples=40)
@given(
    order=st.integers(min_value=1, max_value=11),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_batch_round_trip_property(order, seed):
    from repro.curves.hilbert import hilbert_decode_batch, hilbert_encode_batch

    side = 1 << order
    rng = np.random.default_rng(seed)
    y = rng.integers(0, side, 64, dtype=np.uint64)
    x = rng.integers(0, side, 64, dtype=np.uint64)
    d = hilbert_encode_batch(y, x, order)
    assert int(d.max(initial=0)) < side * side
    y2, x2 = hilbert_decode_batch(d, order)
    np.testing.assert_array_equal(y2, y)
    np.testing.assert_array_equal(x2, x)
