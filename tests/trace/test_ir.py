"""Unit tests for the columnar trace IR (repro.trace.ir).

Codec round-trips, on-disk format validation (magic/version/torn-tail/
digest rejection), the lowering adapter, and the content-addressed
cache's atomic-write/stale-tmp discipline.  The frame-codec and format
classes run twice: on the codec this host loads (C where the library
builds) and, in their ``...Numpy`` subclasses, on the NumPy fallback.
"""

import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

from repro.errors import TraceError
from repro import _clib
from repro.trace import TraceChunk, concat_chunks
from repro.trace.ir import (
    IR_VERSION,
    TRACE_KINDS,
    TraceShard,
    TraceIRCache,
    TraceIRReader,
    TraceIRWriter,
    build_trace_chunks,
    decode_frame,
    encode_frame,
    lower_chunks,
    matmul_trace_params,
    trace_fingerprint,
    trace_shards,
    write_trace_ir,
)
from repro.trace.matmul_trace import MatmulTraceSpec, naive_matmul_trace
from tests.trace import ir_oracles


def rand_columns(n, seed=0, tag_uniform=False):
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, 2**63, size=n, dtype=np.uint64)
    is_write = rng.integers(0, 2, size=n).astype(bool)
    if tag_uniform:
        tags = np.full(n, 3, dtype=np.uint8)
    else:
        tags = rng.integers(0, 256, size=n).astype(np.uint8)
    return lines, is_write, tags


class TestFrameCodec:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 8, 63, 64, 65, 4096])
    @pytest.mark.parametrize("tag_uniform", [True, False])
    def test_roundtrip(self, n, tag_uniform):
        lines, w, t = rand_columns(n, seed=n, tag_uniform=tag_uniform)
        frame = encode_frame(lines, w, t)
        L, W, T, end = decode_frame(frame)
        assert end == len(frame)
        np.testing.assert_array_equal(L, lines)
        np.testing.assert_array_equal(W, w)
        np.testing.assert_array_equal(T, t)
        assert L.dtype == np.uint64 and W.dtype == bool and T.dtype == np.uint8

    def test_wrapping_deltas(self):
        # Deltas that wrap the full uint64 range must stay exact.
        lines = np.array([0, 2**64 - 1, 1, 2**63, 0], dtype=np.uint64)
        frame = encode_frame(lines, np.zeros(5, bool), np.zeros(5, np.uint8))
        L, _, _, _ = decode_frame(frame)
        np.testing.assert_array_equal(L, lines)

    def test_constant_stream_packs_to_zero_width(self):
        lines = np.full(1000, 42, dtype=np.uint64)
        frame = encode_frame(lines, np.zeros(1000, bool), np.zeros(1000, np.uint8))
        # width 0 deltas + packed write bits + uniform tag: far below raw.
        assert len(frame) < 1000
        L, _, _, _ = decode_frame(frame)
        np.testing.assert_array_equal(L, lines)

    def test_column_length_mismatch(self):
        with pytest.raises(TraceError, match="length mismatch"):
            encode_frame(
                np.zeros(3, np.uint64), np.zeros(2, bool), np.zeros(3, np.uint8)
            )

    def test_truncated_frame_rejected(self):
        lines, w, t = rand_columns(100)
        frame = encode_frame(lines, w, t)
        with pytest.raises(TraceError, match="truncated"):
            decode_frame(frame[:-1])
        with pytest.raises(TraceError, match="truncated"):
            decode_frame(frame[:10])

    def test_corrupt_payload_rejected(self):
        lines, w, t = rand_columns(100)
        frame = bytearray(encode_frame(lines, w, t))
        frame[-1] ^= 0xFF
        with pytest.raises(TraceError, match="digest mismatch"):
            decode_frame(bytes(frame))

    def test_frames_concatenate(self):
        a = encode_frame(*rand_columns(10, seed=1))
        b = encode_frame(*rand_columns(20, seed=2))
        buf = a + b
        _, _, _, end = decode_frame(buf)
        assert end == len(a)
        L, _, _, end2 = decode_frame(buf, end)
        assert end2 == len(buf) and len(L) == 20

    @pytest.mark.parametrize(
        "wb,n",
        [(0, 0), (0, 1)] + [(wb, n) for wb in range(9) for n in (2, 3, 17)],
    )
    def test_every_width_matches_the_oracle(self, wb, n):
        # Byte-identical to the byte-matrix codec at every delta width,
        # with uniform and raw tags, and with a first delta that wraps
        # below 0 or above 2**64 - 1.
        for first in (0, 2**64 - 1):
            for uniform in (True, False):
                cols = width_columns(wb, n, first, uniform, seed=wb * 100 + n)
                frame = encode_frame(*cols)
                assert frame == ir_oracles.encode_frame(*cols)
                assert frame[16] == 8 * wb
                got = decode_frame(frame)
                want = ir_oracles.decode_frame(frame)
                assert got[3] == want[3] == len(frame)
                for a, b, c in zip(got[:3], want[:3], cols):
                    np.testing.assert_array_equal(a, b)
                    np.testing.assert_array_equal(a, c)
                    assert a.dtype == b.dtype


def width_columns(wb, n, first, uniform, seed):
    """``n`` accesses whose zigzag delta codes fill exactly ``wb`` bytes.

    The first delta wraps: below 0 when ``first`` is 0 (an odd code is a
    negative delta), above ``2**64 - 1`` when it is that (an even code is
    a positive one).
    """
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 2**63, size=max(0, n - 1), dtype=np.uint64)
    codes = (codes << np.uint64(1)) | rng.integers(0, 2, len(codes), np.uint64)
    if wb < 8:
        codes &= np.uint64((1 << (8 * wb)) - 1)
    if wb and len(codes):
        codes[0] = np.uint64((1 << (8 * wb - 1)) | (first == 0))
    sign = np.uint64(0) - (codes & np.uint64(1))
    deltas = (codes >> np.uint64(1)) ^ sign
    lines = np.cumsum(
        np.concatenate([np.array([first], np.uint64), deltas]), dtype=np.uint64
    )[:n]
    is_write = rng.integers(0, 2, n).astype(bool)
    if uniform:
        tags = np.full(n, 7, dtype=np.uint8)
    else:
        tags = rng.integers(0, 256, n).astype(np.uint8)
    return lines, is_write, tags


@pytest.mark.usefixtures("no_clib")
class TestFrameCodecNumpy(TestFrameCodec):
    """:class:`TestFrameCodec` on the NumPy fallback codec."""

    def test_runs_the_numpy_codec(self):
        assert _clib.load() is None


@pytest.mark.skipif(_clib.load() is None, reason="no C toolchain")
class TestCCodec:
    """Where the library loads, the delta columns run in C, and only
    after the frame's checks in Python."""

    def _spy(self, monkeypatch, fail=False):
        calls = []
        for name in ("delta_width", "pack_deltas", "unpack_deltas"):
            real = getattr(_clib, name)

            def spy(*args, _name=name, _real=real):
                if fail:
                    pytest.fail(f"{_name} called on a rejected frame")
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(_clib, name, spy)
        return calls

    def test_frames_encode_and_decode_in_c(self, monkeypatch):
        calls = self._spy(monkeypatch)
        lines, w, t = rand_columns(100)
        L, _, _, _ = decode_frame(encode_frame(lines, w, t))
        np.testing.assert_array_equal(L, lines)
        assert calls == ["delta_width", "pack_deltas", "unpack_deltas"]

    def test_bad_frames_fail_before_any_c_call(self):
        frame = encode_frame(*rand_columns(100))
        corrupt = bytearray(frame)
        corrupt[-1] ^= 0xFF
        wide = bytearray(frame)
        wide[16] = 72  # delta width 9 bytes
        with pytest.MonkeyPatch.context() as mp:
            self._spy(mp, fail=True)
            for bad, match in ((frame[:-1], "truncated"),
                               (frame[:10], "truncated"),
                               (bytes(corrupt), "digest mismatch"),
                               (bytes(wide), "delta width")):
                with pytest.raises(TraceError, match=match):
                    decode_frame(bad)
            with pytest.raises(TraceError, match="length mismatch"):
                encode_frame(
                    np.zeros(3, np.uint64), np.zeros(2, bool),
                    np.zeros(3, np.uint8),
                )


def golden_columns():
    """A fixed set of segments: every delta byte width from 0 to 8, each
    at n in {1, 2, 3, 17, 300} with uniform and with raw tags.

    The columns come from SHAKE-256, not a NumPy random stream, so they
    stay the same on every NumPy version.  Each frame with deltas reaches
    its width: its first zigzag code has the top bit of its top byte set.
    """
    out = []
    for wb in range(9):
        for n in (1, 2, 3, 17, 300):
            for uniform in (True, False):
                seed = f"ir-golden/{wb}/{n}/{int(uniform)}".encode()
                raw = np.frombuffer(
                    hashlib.shake_256(seed).digest(10 * n + 8), np.uint8
                )
                first = raw[:8].copy().view("<u8").astype(np.uint64)
                codes = raw[8:8 * n].copy().view("<u8").astype(np.uint64)
                if wb < 8:
                    codes &= np.uint64((1 << (8 * wb)) - 1)
                if wb and n > 1:
                    codes[0] |= np.uint64(1 << (8 * wb - 1))
                sign = np.uint64(0) - (codes & np.uint64(1))
                deltas = (codes >> np.uint64(1)) ^ sign
                lines = np.cumsum(
                    np.concatenate([first, deltas]), dtype=np.uint64
                )
                is_write = (raw[8 * n:9 * n] & 1).astype(bool)
                tags = np.full(n, raw[-1]) if uniform else raw[9 * n:10 * n]
                out.append((lines, is_write, tags.astype(np.uint8)))
    return out


#: SHA-256 of the concatenated :func:`golden_columns` frames, and the
#: committed IR file below; both were written by the byte-matrix codec
#: (``tests/trace/ir_oracles.py``) before the one-pass rewrite.
GOLDEN_FRAMES_SHA256 = (
    "24451201ec58fb1922b53ea2cbb06a5d30005b541fc34ff85dc750adab0fa5c7"
)
GOLDEN_IR = (
    Path(__file__).parent.parent / "golden" / "data"
    / "matmul_n32_holut_rows16_17.ir"
)


class TestFormatGolden:
    """The IR format is pinned: ``IR_VERSION`` 1 files stay readable and
    encode stays byte-identical."""

    def test_frames_encode_to_the_committed_digest(self):
        frames = [encode_frame(*cols) for cols in golden_columns()]
        assert {f[16] for f in frames} == set(range(0, 65, 8))  # widths
        blob = b"".join(frames)
        assert hashlib.sha256(blob).hexdigest() == GOLDEN_FRAMES_SHA256
        off = 0
        for lines, is_write, tags in golden_columns():
            got_l, got_w, got_t, off = decode_frame(blob, off)
            np.testing.assert_array_equal(got_l, lines)
            np.testing.assert_array_equal(got_w, is_write)
            np.testing.assert_array_equal(got_t, tags)
        assert off == len(blob)

    def test_committed_file_decodes_and_rewrites_identically(self, tmp_path):
        params = matmul_trace_params(
            MatmulTraceSpec.uniform(32, "holut"), rows=[16, 17]
        )
        shard = TraceShard("matmul", params, 64)
        with TraceIRReader(GOLDEN_IR) as reader:
            assert reader.meta["fingerprint"] == trace_fingerprint(
                "matmul", params, 64
            )
            assert (reader.n_segments, reader.n_accesses) == (2, 4160)
            got = list(reader.segments())
        want = list(shard.segments())
        assert len(got) == len(want)
        for g, w in zip(got, want):
            for a, b in zip(g, w):
                np.testing.assert_array_equal(a, b)
                assert a.dtype == b.dtype
        rewritten = write_trace_ir(
            tmp_path / "t.ir",
            build_trace_chunks("matmul", params),
            64,
            meta=reader.meta,
        )
        assert rewritten.read_bytes() == GOLDEN_IR.read_bytes()


@pytest.mark.usefixtures("no_clib")
class TestFormatGoldenNumpy(TestFormatGolden):
    """:class:`TestFormatGolden` on the NumPy fallback codec."""


class TestLowering:
    def test_one_segment_per_chunk(self):
        spec = MatmulTraceSpec.uniform(8, "mo")
        chunks = list(naive_matmul_trace(spec))
        segs = list(lower_chunks(iter(chunks), 64))
        assert len(segs) == len(chunks)
        for (lines, w, t), c in zip(segs, chunks):
            np.testing.assert_array_equal(lines, c.lines(64))
            np.testing.assert_array_equal(w, c.is_write)
            np.testing.assert_array_equal(t, c.tag)

    def test_rejects_bad_line_bytes(self):
        with pytest.raises(TraceError, match="power of two"):
            list(lower_chunks([], 48))


class TestFileFormat:
    def _write(self, tmp_path, spec=None, line_bytes=64, meta=None):
        spec = spec or MatmulTraceSpec.uniform(8, "ho")
        path = tmp_path / "t.ir"
        return write_trace_ir(
            path, naive_matmul_trace(spec), line_bytes, meta=meta
        )

    def test_roundtrip_matches_generator(self, tmp_path):
        spec = MatmulTraceSpec.uniform(8, "ho")
        path = self._write(tmp_path, spec, meta={"hello": 1})
        chunks = list(naive_matmul_trace(spec))
        with TraceIRReader(path) as r:
            assert r.meta == {"hello": 1}
            assert r.line_bytes == 64
            assert r.n_segments == len(chunks)
            assert r.n_accesses == sum(len(c) for c in chunks)
            for (lines, w, t), c in zip(r.segments(), chunks):
                np.testing.assert_array_equal(lines, c.lines(64))
                np.testing.assert_array_equal(w, c.is_write)
                np.testing.assert_array_equal(t, c.tag)
            r.verify()

    def test_random_access_segment(self, tmp_path):
        spec = MatmulTraceSpec.uniform(8, "rm")
        path = self._write(tmp_path, spec)
        chunks = list(naive_matmul_trace(spec))
        with TraceIRReader(path) as r:
            lines, _, _ = r.segment(len(chunks) - 1)
            np.testing.assert_array_equal(lines, chunks[-1].lines(64))

    def test_stats(self, tmp_path):
        spec = MatmulTraceSpec.uniform(8, "ho")
        path = self._write(tmp_path, spec)
        merged = concat_chunks(naive_matmul_trace(spec))
        with TraceIRReader(path) as r:
            st = r.stats()
        assert st.accesses == len(merged)
        assert st.writes == int(merged.is_write.sum())
        assert st.unique_lines == len(np.unique(merged.lines(64)))
        assert st.line_bytes == 64
        assert st.encoded_bytes == os.path.getsize(path)
        assert st.compression_ratio > 1.0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ir"
        path.write_bytes(b"\x00" * 200)
        with pytest.raises(TraceError, match="bad magic"):
            TraceIRReader(path)

    def test_too_short(self, tmp_path):
        path = tmp_path / "short.ir"
        path.write_bytes(b"SFCTIR01")
        with pytest.raises(TraceError, match="too short"):
            TraceIRReader(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="cannot open"):
            TraceIRReader(tmp_path / "nope.ir")

    def test_torn_tail_rejected(self, tmp_path):
        path = self._write(tmp_path)
        data = path.read_bytes()
        for cut in (1, 8, 40, len(data) // 2, len(data) - 1):
            torn = tmp_path / "torn.ir"
            torn.write_bytes(data[:-cut])
            with pytest.raises(TraceError):
                TraceIRReader(torn)

    def test_corrupt_segment_detected_by_verify(self, tmp_path):
        path = self._write(tmp_path)
        data = bytearray(path.read_bytes())
        # Flip a byte in the middle of the segment payloads.
        data[len(data) // 2] ^= 0xFF
        bad = tmp_path / "bad.ir"
        bad.write_bytes(bytes(data))
        with pytest.raises(TraceError):
            with TraceIRReader(bad) as r:
                r.verify()

    def test_version_mismatch(self, tmp_path):
        path = self._write(tmp_path)
        data = bytearray(path.read_bytes())
        data[8] = IR_VERSION + 1  # version field follows the 8-byte magic
        bad = tmp_path / "vers.ir"
        bad.write_bytes(bytes(data))
        with pytest.raises(TraceError, match="version"):
            TraceIRReader(bad)

    def test_writer_abort_leaves_nothing(self, tmp_path):
        path = tmp_path / "never.ir"
        w = TraceIRWriter(path, 64)
        w.append(*rand_columns(10))
        w.abort()
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_writer_context_cleans_up_on_error(self, tmp_path):
        path = tmp_path / "never.ir"
        with pytest.raises(RuntimeError):
            with TraceIRWriter(path, 64) as w:
                w.append(*rand_columns(10))
                raise RuntimeError("boom")
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_writer_rejects_bad_line_bytes(self, tmp_path):
        with pytest.raises(TraceError, match="power of two"):
            TraceIRWriter(tmp_path / "x.ir", 100)

    def test_empty_trace_file(self, tmp_path):
        path = write_trace_ir(tmp_path / "empty.ir", [], 64)
        with TraceIRReader(path) as r:
            assert r.n_segments == 0 and r.n_accesses == 0
            assert list(r.segments()) == []
            assert r.stats().accesses == 0


MATMUL_PARAMS = {
    "n": 8, "scheme_a": "ho", "scheme_b": "ho", "scheme_c": "ho",
    "elem_bytes": 8, "rows": None, "cols_per_chunk": 64, "loop_order": "ijk",
}


class TestFingerprint:
    def test_stable(self):
        a = trace_fingerprint("matmul", MATMUL_PARAMS, 64)
        b = trace_fingerprint("matmul", dict(MATMUL_PARAMS), 64)
        assert a == b

    def test_sensitive_to_params_and_granularity(self):
        base = trace_fingerprint("matmul", MATMUL_PARAMS, 64)
        assert trace_fingerprint("matmul", MATMUL_PARAMS, 128) != base
        other = dict(MATMUL_PARAMS, n=16)
        assert trace_fingerprint("matmul", other, 64) != base
        assert trace_fingerprint("blocked", MATMUL_PARAMS, 64) != base


class TestKindRegistry:
    def test_every_kind_builds(self):
        params = {
            "matmul": MATMUL_PARAMS,
            "blocked": {
                "variant": "tiled", "n": 8, "scheme_a": "rm",
                "scheme_b": "rm", "scheme_c": "rm", "block": 4,
            },
            "synthetic": {
                "variant": "sequential", "n_accesses": 100,
            },
            "query": {
                "grid_side": 4, "tile_side": 4, "workload": "bbox",
                "n_queries": 3, "seed": 0, "stream_line_bytes": 64,
            },
        }
        assert set(params) == set(TRACE_KINDS)
        for kind, p in params.items():
            chunks = list(build_trace_chunks(kind, p))
            assert chunks and all(isinstance(c, TraceChunk) for c in chunks)

    def test_unknown_kind(self):
        with pytest.raises(TraceError, match="unknown trace kind"):
            build_trace_chunks("nope", {})

    def test_missing_parameter(self):
        with pytest.raises(TraceError, match="missing parameter"):
            build_trace_chunks("matmul", {"n": 8})

    def test_unexpected_parameter(self):
        with pytest.raises(TraceError, match="invalid parameters"):
            build_trace_chunks(
                "synthetic", {"variant": "sequential", "bogus": 1}
            )

    def test_unknown_synthetic_variant(self):
        with pytest.raises(TraceError, match="unknown synthetic variant"):
            list(build_trace_chunks("synthetic", {"variant": "nope"}))


def replayed(shard):
    """A shard's segment count and its three columns, as plain lists."""
    segments = list(shard.segments())
    columns = zip(*segments)
    return len(segments), [np.concatenate(c).tolist() for c in columns]


class TestCache:
    def test_get_or_build_hits(self, tmp_path):
        cache = TraceIRCache(tmp_path)
        p1 = cache.get_or_build("matmul", MATMUL_PARAMS, 64)
        mtime = p1.stat().st_mtime_ns
        p2 = cache.get_or_build("matmul", MATMUL_PARAMS, 64)
        assert p1 == p2
        assert p2.stat().st_mtime_ns == mtime  # untouched: a cache hit

    def test_corrupt_entry_rebuilt(self, tmp_path):
        cache = TraceIRCache(tmp_path)
        p = cache.get_or_build("matmul", MATMUL_PARAMS, 64)
        good = p.read_bytes()
        p.write_bytes(good[: len(good) // 2])  # torn write
        p2 = cache.get_or_build("matmul", MATMUL_PARAMS, 64)
        assert p2 == p and p2.read_bytes() == good

    def test_stale_tmp_swept(self, tmp_path):
        cache = TraceIRCache(tmp_path)
        p = cache.get_or_build("matmul", MATMUL_PARAMS, 64)
        dead = p.parent / f".{p.name}.999999999.tmp"
        dead.write_bytes(b"debris")
        mine = p.parent / f".{p.name}.{os.getpid()}.tmp"
        mine.write_bytes(b"own-pid debris from a previous life")
        TraceIRCache(tmp_path)  # sweep runs on open
        assert not dead.exists()
        assert not mine.exists()
        assert p.exists()

    def test_fresh_tmp_of_live_pid_kept(self, tmp_path):
        cache = TraceIRCache(tmp_path)
        p = cache.get_or_build("matmul", MATMUL_PARAMS, 64)
        ppid = os.getppid()
        if ppid <= 1:  # pragma: no cover - init-parented test runner
            pytest.skip("no live foreign pid to impersonate")
        live = p.parent / f".{p.name}.{ppid}.tmp"
        live.write_bytes(b"in-flight write of a live process")
        TraceIRCache(tmp_path)
        assert live.exists()
        live.unlink()

    def test_materialize_helpers(self, tmp_path):
        # The CLI's get_or_build and the consumers' trace_shards give one
        # spec one content address.
        p1 = TraceIRCache(tmp_path).get_or_build("matmul", MATMUL_PARAMS, 64)
        spec = MatmulTraceSpec.uniform(8, "ho")
        (shard,) = trace_shards(
            "matmul", [matmul_trace_params(spec)], 64, cache_dir=tmp_path
        )
        assert Path(shard.path) == p1 and not shard.build  # a hit
        with TraceIRReader(p1) as r:
            assert r.meta["kind"] == "matmul"
            assert r.meta["params"]["n"] == 8
            assert r.meta["fingerprint"] == p1.name[: -len(".ir")]

    def test_trace_shards_build_once_then_map(self, tmp_path):
        spec = MatmulTraceSpec.uniform(8, "mo")
        params = [matmul_trace_params(spec, rows=[r]) for r in (1, 2, 1)]
        live = trace_shards("matmul", params, 64)
        assert [s.path for s in live] == [None] * 3
        cold = trace_shards("matmul", params, 64, cache_dir=tmp_path)
        # The repeated spec generates without writing: one builder each.
        assert [s.build for s in cold] == [True, True, False]
        assert cold[2].path is None
        reference = [replayed(s) for s in live]
        assert [replayed(s) for s in cold] == reference
        warm = trace_shards("matmul", params, 64, cache_dir=tmp_path)
        assert [s.build for s in warm] == [False] * 3
        assert [s.path for s in warm] == [cold[0].path, cold[1].path, cold[0].path]
        assert [replayed(s) for s in warm] == reference

    def test_rows_change_the_address(self, tmp_path):
        spec = MatmulTraceSpec.uniform(8, "ho")
        cache = TraceIRCache(tmp_path)
        p_all = cache.get_or_build("matmul", matmul_trace_params(spec), 64)
        p_rows = cache.get_or_build(
            "matmul", matmul_trace_params(spec, rows=[1, 2]), 64
        )
        assert p_all != p_rows
        chunks = list(naive_matmul_trace(spec, rows=[1, 2]))
        with TraceIRReader(p_rows) as r:
            assert r.n_accesses == sum(len(c) for c in chunks)
