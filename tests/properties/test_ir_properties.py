"""Property-based tests for the trace-IR codec (Hypothesis).

The invariants the whole trace pipeline rests on:

* **Round-trip identity** — encode→decode reproduces every line
  address, write flag and tag exactly, for any uint64 line stream
  (including wrap-around deltas) and any tag distribution.
* **Chunk-boundary independence** — the same access stream split into
  segments at arbitrary boundaries decodes to the same concatenated
  columns; how a generator chunks its output never changes the trace.
* **Torn/corrupt-tail rejection** — a file truncated at any point, or
  with any payload byte flipped, is rejected with
  :class:`~repro.errors.TraceError` (the journal checksum discipline),
  never silently misread.

Every example runs twice (:func:`on_both_codecs`): on the codec this
host loads (C where the library builds), then on the NumPy fallback.
Skips gracefully when Hypothesis is not installed (exercised by the
dedicated CI job).
"""

import functools
import pathlib
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.errors import TraceError  # noqa: E402
from repro.trace.ir import (  # noqa: E402
    TraceIRReader,
    TraceIRWriter,
    decode_frame,
    encode_frame,
)
from tests.trace import ir_oracles  # noqa: E402


def on_both_codecs(test):
    """Run ``test`` on this host's frame codec, then on the NumPy fallback.

    Per example, inside one test: Hypothesis refuses to run one test
    function from two test classes, which is how ``tests/trace/test_ir.py``
    repeats its plain tests on the fallback.
    """

    @functools.wraps(test)
    def run(*args, **kwargs):
        test(*args, **kwargs)
        with ir_oracles.numpy_codec():
            test(*args, **kwargs)

    return run


@st.composite
def columns(draw, max_n=300):
    """Random (lines, is_write, tags) columns, biased toward nasty deltas."""
    n = draw(st.integers(0, max_n))
    flavor = draw(st.sampled_from(["any", "small", "extreme", "width"]))
    uniform = draw(st.booleans())
    if flavor == "width":
        # Zigzag codes bounded to one byte width from 0 to 8, the first
        # one at full width.  The short frames (uniform tags, no tag
        # column) leave the fewest bytes after the packed deltas, which
        # is where a word read could run past them.
        wb = draw(st.integers(0, 8))
        if draw(st.booleans()):
            n = draw(st.sampled_from([1, 2, 3, 17]))
            uniform = True
        codes = draw(
            st.lists(
                st.integers(0, 2 ** (8 * wb) - 1),
                min_size=max(0, n - 1), max_size=max(0, n - 1),
            )
        )
        if wb and codes:
            codes[0] |= 1 << (8 * wb - 1)
        codes = np.array(codes, dtype=np.uint64)
        sign = np.uint64(0) - (codes & np.uint64(1))
        deltas = (codes >> np.uint64(1)) ^ sign
        first = np.array([draw(st.integers(0, 2**64 - 1))], dtype=np.uint64)
        lines = np.cumsum(np.concatenate([first, deltas]), dtype=np.uint64)
        lines = lines[:n]
    elif flavor == "small":
        base = draw(st.integers(0, 2**20))
        deltas = draw(
            st.lists(st.integers(-64, 64), min_size=n, max_size=n)
        )
        if n:
            walk = np.cumsum(
                np.array([base] + deltas[: n - 1], dtype=np.int64)
            )
            lines = walk.astype(np.uint64)  # C-cast wraps mod 2**64
        else:
            lines = np.empty(0, np.uint64)
    elif flavor == "extreme":
        pool = st.sampled_from(
            [0, 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1]
        )
        lines = np.array(
            draw(st.lists(pool, min_size=n, max_size=n)), dtype=np.uint64
        )
    else:
        lines = np.array(
            draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n)),
            dtype=np.uint64,
        )
    is_write = np.array(
        draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
    )
    if uniform:
        tags = np.full(n, draw(st.integers(0, 255)), dtype=np.uint8)
    else:
        tags = np.array(
            draw(st.lists(st.integers(0, 255), min_size=n, max_size=n)),
            dtype=np.uint8,
        )
    return lines, is_write, tags


class TestRoundTrip:
    @given(columns())
    @settings(max_examples=80, deadline=None)
    @on_both_codecs
    def test_frame_roundtrip_identity(self, cols):
        lines, is_write, tags = cols
        frame = encode_frame(lines, is_write, tags)
        L, W, T, end = decode_frame(frame)
        assert end == len(frame)
        np.testing.assert_array_equal(L, lines)
        np.testing.assert_array_equal(W, is_write)
        np.testing.assert_array_equal(T, tags)

    @given(columns(), st.data())
    @settings(max_examples=60, deadline=None)
    @on_both_codecs
    def test_chunk_boundary_independence(self, cols, data):
        """Any segmentation of one stream decodes to the same columns."""
        lines, is_write, tags = cols
        n = len(lines)
        n_cuts = data.draw(st.integers(0, min(5, n)))
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(0, n), min_size=n_cuts, max_size=n_cuts
                )
            )
        )
        bounds = [0] + cuts + [n]
        frames = [
            encode_frame(lines[a:b], is_write[a:b], tags[a:b])
            for a, b in zip(bounds, bounds[1:])
        ]
        buf = b"".join(frames)
        got_l, got_w, got_t = [], [], []
        off = 0
        while off < len(buf):
            L, W, T, off = decode_frame(buf, off)
            got_l.append(L)
            got_w.append(W)
            got_t.append(T)
        cat = lambda parts, dt: (  # noqa: E731
            np.concatenate(parts) if parts else np.empty(0, dt)
        )
        np.testing.assert_array_equal(cat(got_l, np.uint64), lines)
        np.testing.assert_array_equal(cat(got_w, bool), is_write)
        np.testing.assert_array_equal(cat(got_t, np.uint8), tags)


class TestAgainstOracle:
    """The codec against the byte-matrix codec it replaced."""

    @given(columns())
    @settings(max_examples=150, deadline=None)
    @on_both_codecs
    def test_same_bytes_and_arrays(self, cols):
        frame = encode_frame(*cols)
        assert frame == ir_oracles.encode_frame(*cols)
        got = decode_frame(frame)
        want = ir_oracles.decode_frame(frame)
        assert got[3] == want[3] == len(frame)
        for a, b in zip(got[:3], want[:3]):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype


class TestRejection:
    @given(columns(max_n=100), st.data())
    @settings(max_examples=50, deadline=None)
    @on_both_codecs
    def test_torn_file_rejected(self, cols, data):
        """A file truncated anywhere strictly inside is never misread."""
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "t.ir"
            with TraceIRWriter(path, 64) as w:
                w.append(*cols)
            blob = path.read_bytes()
            cut = data.draw(st.integers(1, len(blob) - 1))
            torn = pathlib.Path(tmp) / "cut.ir"
            torn.write_bytes(blob[:cut])
            with pytest.raises(TraceError):
                with TraceIRReader(torn) as r:
                    r.verify()

    @given(columns(max_n=100), st.data())
    @settings(max_examples=50, deadline=None)
    @on_both_codecs
    def test_flipped_payload_byte_rejected(self, cols, data):
        lines, is_write, tags = cols
        frame = bytearray(encode_frame(lines, is_write, tags))
        pos = data.draw(st.integers(0, len(frame) - 1))
        bit = data.draw(st.integers(0, 7))
        frame[pos] ^= 1 << bit
        try:
            L, W, T, end = decode_frame(bytes(frame))
        except TraceError:
            return  # rejected: the property holds
        # A flip that decodes successfully must have hit the digest
        # itself... which is covered by the digest check — so the only
        # acceptable "success" is none at all.
        pytest.fail("corrupted frame decoded without error")
