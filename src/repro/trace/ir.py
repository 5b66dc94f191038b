"""Columnar streaming trace IR: compact, cacheable, memory-mappable traces.

Every engine in the reproduction consumes the same chunked access
streams, yet traces were historically regenerated from scratch by every
consumer (and every ``sim/parallel`` worker) and materialized as loose
:class:`~repro.trace.events.TraceChunk` object batches.  This module
defines the shared intermediate representation that replaces that:

* **Columnar segments.**  A trace is a sequence of struct-of-arrays
  *segments* of ``(line_address, is_write, tag)`` — already lowered from
  byte addresses to cache-line numbers at a declared ``line_bytes``
  granularity, so consumers skip the per-chunk address→line shift
  entirely and the C replay kernel gets a flat ``uint64`` line buffer
  to chew on.  Segment boundaries default to the producing generator's
  chunk boundaries, which keeps chunk-count-sensitive protocols (the
  parallel engine's per-chunk residue messages) bit-identical.
* **Compact codec.**  Line numbers are delta-encoded (zigzag, wrapping
  ``uint64`` arithmetic — exact for any input) and packed to the
  segment's minimal *byte* width (decode throughput beats squeezing the
  last bits — see :func:`_pack_codes`); write flags are packed 8/byte;
  a uniform-tag segment stores one byte.  Typical matmul traces
  compress ~3–5x against the raw 10 B/access columns.  The per-access
  delta work (width, packing, and unpacking fused with the prefix sum)
  runs in the C library of :mod:`repro._clib` when it loads (the first
  frame loads it), and in NumPy passes when it does not; both write the
  same bytes.  Header parsing, the size checks and the SHA-256 digest stay
  here and run before any C call.
* **Durable on-disk format.**  A versioned binary layout with per-segment
  SHA-256 digests (the checksum discipline of
  :mod:`repro.robust.journal`) and a footer that seals the file: a torn
  or truncated write is detected on open, a corrupted segment on decode.
  Files are written to a ``.{name}.{pid}.tmp`` sibling and published
  with ``os.replace`` — the sweep-cache atomic-write discipline.
* **Streaming, bounded-window reads.**  :class:`TraceIRReader` maps the
  file read-only (``mmap``) and decodes one segment at a time, so a
  16.8M-access trace costs one segment's working set per consumer while
  the page cache shares the encoded bytes across every process mapping
  the same file.
* **Content-addressed cache.**  :class:`TraceIRCache` keys files by a
  SHA-256 fingerprint of ``(kind, params, line_bytes, codec version)``;
  any consumer asking for the same trace spec gets the same file.  All
  trace generators are reachable through the :data:`TRACE_KINDS`
  registry via one shared lowering adapter (:func:`lower_chunks`).
* **One trace path.**  A consumer reads its trace through a
  :class:`TraceShard` from :func:`trace_shards`: generated and lowered
  without a cache, memory-mapped on a cache hit, and on a miss built
  while it is replayed — :func:`tee_trace_ir`, the only code that writes
  segments, yields each lowered segment while appending it to the file.
  Every multicore-sim run takes one shard per thread, with or without
  pool workers, and both studies one per scheme; :func:`write_trace_ir`
  and :meth:`TraceIRCache.get_or_build` simply drain the tee.

Determinism: the codec is bijective per segment (enforced by the
Hypothesis suite in ``tests/properties/test_ir_properties.py``), and
the builders delegate to the deterministic generators, so a cache file
is a pure function of its fingerprint.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import _clib
from repro.errors import TraceError
from repro.robust.fsutil import durable_replace, sweep_stale_tmp
from repro.robust.journal import canonical_sha
from repro.trace.events import TraceChunk

__all__ = [
    "IR_VERSION",
    "TRACE_KINDS",
    "IRStats",
    "TraceIRCache",
    "TraceIRReader",
    "TraceIRWriter",
    "TraceShard",
    "build_trace_chunks",
    "decode_frame",
    "default_trace_cache_dir",
    "encode_frame",
    "lower_chunks",
    "matmul_trace_params",
    "tee_trace_ir",
    "trace_fingerprint",
    "trace_shards",
    "write_trace_ir",
]

#: On-disk codec version; bump when the binary layout changes.  Part of
#: every cache fingerprint, so old cache entries simply stop matching.
IR_VERSION = 1

_FILE_MAGIC = b"SFCTIR01"
_END_MAGIC = b"SFCTEND1"

#: magic, version, flags, line_bytes, n_segments, n_accesses, meta_len
_HEADER = struct.Struct("<8sHHIQQI")
#: n, first_line, width, tag_mode, uniform_tag, (pad), lines_nbytes
_SEG_PREFIX = struct.Struct("<QQBBBxI")
_SHA_LEN = 32
#: magic, n_segments, n_accesses — must agree with the header, sealing
#: the file against torn writes.
_FOOTER = struct.Struct("<8sQQ")

_TAG_UNIFORM = 0
_TAG_RAW = 1

#: Raw column bytes per access (uint64 line + bool write + uint8 tag):
#: the denominator of the reported compression ratio, and what a
#: decoded in-memory segment costs.
RAW_BYTES_PER_ACCESS = 10


def default_trace_cache_dir() -> Path:
    """``$XDG_CACHE_HOME``- (or ``~/.cache``-) rooted trace-IR cache."""
    root = os.environ.get("XDG_CACHE_HOME") or (Path.home() / ".cache")
    return Path(root) / "sfc-repro" / "traceir"


# -- segment codec -------------------------------------------------------------


#: Byte widths a native little-endian view reads as is; the others read
#: through the next wider word (:func:`_unpack_codes`).  These NumPy
#: passes run when the C library does not load (:func:`repro._clib.load`).
_NATIVE_WIDTHS = (1, 2, 4, 8)


def _pack_codes(codes: np.ndarray, wb: int, out: np.ndarray) -> None:
    """Write the low ``wb`` bytes of each uint64 code, little-endian, into
    the uint8 buffer ``out`` (``len(codes) * wb`` bytes).

    Widths are whole bytes: the decoder has to outrun trace
    *regeneration* to be worth caching, and byte moves do where per-bit
    shuffles measurably do not.
    """
    if wb in _NATIVE_WIDTHS:
        out.view(f"<u{wb}")[:] = codes
    else:
        # Each code's low bytes as one ``wb``-byte item at stride 8.
        low = np.ndarray(
            (len(codes),), dtype=f"V{wb}",
            buffer=codes.astype("<u8", copy=False), strides=(8,),
        )
        out.view(f"V{wb}")[:] = low


def _unpack_codes(view, off: int, m: int, wb: int, avail: int, out) -> None:
    """Read ``m`` little-endian ``wb``-byte codes at ``view[off:]`` into
    the uint64 array ``out``.

    Widths 1, 2, 4 and 8 are native views.  A 3-, 5-, 6- or 7-byte code
    is read through an overlapping 4- or 8-byte word view at stride
    ``wb`` and masked, so the last word reaches ``word - wb`` bytes past
    the codes; ``avail`` is how many bytes the frame has from ``off``
    on, and only a frame too short for that read is copied into a
    zero-padded buffer first.
    """
    if wb in _NATIVE_WIDTHS:
        out[:] = np.frombuffer(view, dtype=f"<u{wb}", count=m, offset=off)
        return
    word = 4 if wb == 3 else 8
    need = (m - 1) * wb + word
    if need > avail:
        padded = np.zeros(need, dtype=np.uint8)
        padded[: m * wb] = np.frombuffer(view, np.uint8, m * wb, off)
        view, off = padded, 0
    words = np.ndarray(
        (m,), dtype=f"<u{word}", buffer=view, offset=off, strides=(wb,)
    )
    np.bitwise_and(words, words.dtype.type((1 << (8 * wb)) - 1), out=out)


def encode_frame(
    lines: np.ndarray, is_write: np.ndarray, tags: np.ndarray
) -> bytes:
    """Encode one segment — header, SHA-256 digest, columnar payload.

    The returned frame is self-contained: :func:`decode_frame` needs no
    outside context, which is what lets the parallel engine ship L2-miss
    residues over IPC as single frames.  Line numbers are stored as the
    first line plus zigzagged wrapping deltas at the smallest byte width
    that holds them all.  The frame is written into one buffer.
    """
    lines = np.ascontiguousarray(lines, dtype=np.uint64)
    is_write = np.ascontiguousarray(is_write, dtype=bool)
    tags = np.ascontiguousarray(tags, dtype=np.uint8)
    n = len(lines)
    if len(is_write) != n or len(tags) != n:
        raise TraceError(
            f"column length mismatch: {n} lines, {len(is_write)} write "
            f"flags, {len(tags)} tags"
        )

    in_c = _clib.load() is not None
    wb = 0
    if n > 1:
        if in_c:
            wb = _clib.delta_width(lines)
        else:
            # Zigzag the wrapping deltas in place: (d << 1) ^ (d >> 63).
            codes = np.subtract(lines[1:], lines[:-1])
            signed = codes.view(np.int64)
            sign = signed >> np.int64(63)
            signed <<= np.int64(1)
            signed ^= sign
            wb = (int(codes.max()).bit_length() + 7) // 8
    lines_nbytes = max(0, n - 1) * wb
    uniform = n == 0 or bool((tags == tags[0]).all())
    w_nbytes = (n + 7) // 8
    payload_off = _SEG_PREFIX.size + _SHA_LEN
    w_off = payload_off + lines_nbytes
    tag_off = w_off + w_nbytes
    frame = np.empty(tag_off + (0 if uniform else n), dtype=np.uint8)

    _SEG_PREFIX.pack_into(
        frame, 0, n, int(lines[0]) if n else 0, 8 * wb,
        _TAG_UNIFORM if uniform else _TAG_RAW,
        int(tags[0]) if n and uniform else 0, lines_nbytes,
    )
    if wb:
        if in_c:
            _clib.pack_deltas(lines, wb, frame[payload_off:w_off])
        else:
            _pack_codes(codes, wb, frame[payload_off:w_off])
    frame[w_off:tag_off] = np.packbits(is_write, bitorder="little")
    if not uniform:
        frame[tag_off:] = tags
    hasher = hashlib.sha256(frame[: _SEG_PREFIX.size])
    hasher.update(frame[payload_off:])
    frame[_SEG_PREFIX.size:payload_off] = np.frombuffer(
        hasher.digest(), dtype=np.uint8
    )
    return frame.tobytes()


def _frame_size(prefix: tuple) -> int:
    """Total frame byte length implied by a parsed segment prefix."""
    n, _first, _width, tag_mode, _utag, lines_nbytes = prefix
    payload = lines_nbytes + (n + 7) // 8
    if tag_mode == _TAG_RAW:
        payload += n
    return _SEG_PREFIX.size + _SHA_LEN + payload


def decode_frame(
    buf, offset: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Decode one frame from ``buf`` at ``offset``.

    Returns ``(lines, is_write, tags, next_offset)``; the arrays are
    freshly allocated (never views into ``buf``).  A short buffer, an
    unknown tag mode or a digest mismatch raises :class:`TraceError` —
    the torn/corrupt-tail rejection the journal discipline promises.
    """
    view = memoryview(buf)
    if offset + _SEG_PREFIX.size + _SHA_LEN > len(view):
        raise TraceError("truncated IR segment header")
    prefix = _SEG_PREFIX.unpack_from(view, offset)
    n, first_line, width, tag_mode, uniform_tag, lines_nbytes = prefix
    if width > 64 or width % 8:
        raise TraceError(
            f"corrupt IR segment: delta width {width} not a byte multiple "
            "<= 64"
        )
    if tag_mode not in (_TAG_UNIFORM, _TAG_RAW):
        raise TraceError(f"corrupt IR segment: unknown tag mode {tag_mode}")
    if lines_nbytes != max(0, n - 1) * (width // 8):
        raise TraceError("corrupt IR segment: delta payload size mismatch")
    end = offset + _frame_size(prefix)
    if end > len(view):
        raise TraceError("truncated IR segment payload")
    sha_off = offset + _SEG_PREFIX.size
    payload_off = sha_off + _SHA_LEN
    hasher = hashlib.sha256()
    hasher.update(view[offset:sha_off])  # memoryview slices: no copies
    hasher.update(view[payload_off:end])
    if hasher.digest() != bytes(view[sha_off:payload_off]):
        raise TraceError("IR segment digest mismatch (corrupt payload)")

    lines = np.empty(n, dtype=np.uint64)
    if _clib.load() is not None:
        _clib.unpack_deltas(
            np.frombuffer(view, np.uint8, lines_nbytes, payload_off),
            n, width // 8, first_line, lines,
        )
    elif n:
        lines[0] = first_line
        if n > 1:
            codes = lines[1:]
            if width:
                _unpack_codes(view, payload_off, n - 1, width // 8,
                              end - payload_off, codes)
                # Unzigzag in place: (c >> 1) ^ -(c & 1).
                sign = codes & np.uint64(1)
                codes >>= np.uint64(1)
                np.subtract(np.uint64(0), sign, out=sign)
                codes ^= sign
            else:
                codes.fill(0)
            np.cumsum(lines, out=lines)
    w_off = payload_off + lines_nbytes
    w_nbytes = (n + 7) // 8
    w_raw = np.frombuffer(view, dtype=np.uint8, count=w_nbytes, offset=w_off)
    is_write = np.unpackbits(w_raw, count=n, bitorder="little").view(bool)
    if tag_mode == _TAG_UNIFORM:
        tags = np.full(n, uniform_tag, dtype=np.uint8)
    else:
        tags = np.frombuffer(
            view, dtype=np.uint8, count=n, offset=w_off + w_nbytes
        ).copy()
    return lines, is_write, tags, end


# -- file writer / reader ------------------------------------------------------


class TraceIRWriter:
    """Stream segments into a new IR file, atomically published on close.

    Appends go to a ``.{name}.{pid}.tmp`` sibling; :meth:`close`
    finalizes the header (segment/access counts are only known then),
    seals the file with the footer, fsyncs and ``os.replace``-publishes
    it.  Abandoning the writer (``abort`` or an exception inside the
    ``with`` block) removes the tmp file — the destination is never left
    half-written.
    """

    def __init__(self, path: str | Path, line_bytes: int, meta: dict | None = None):
        if line_bytes <= 0 or line_bytes & (line_bytes - 1):
            raise TraceError(
                f"line_bytes must be a power of two, got {line_bytes}"
            )
        self.path = Path(path)
        self.line_bytes = line_bytes
        self.meta = dict(meta or {})
        self.n_segments = 0
        self.n_accesses = 0
        self._tmp = self.path.with_name(f".{self.path.name}.{os.getpid()}.tmp")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self._tmp, "wb")
        except OSError as exc:
            raise TraceError(
                f"cannot write trace IR under {self.path.parent}: {exc}"
            ) from exc
        self._meta_blob = json.dumps(
            self.meta, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        # Placeholder header; rewritten with final counts on close.
        self._fh.write(self._header())
        self._fh.write(self._meta_blob)

    def _header(self) -> bytes:
        return _HEADER.pack(
            _FILE_MAGIC, IR_VERSION, 0, self.line_bytes,
            self.n_segments, self.n_accesses, len(self._meta_blob),
        )

    def append(
        self, lines: np.ndarray, is_write: np.ndarray, tags: np.ndarray
    ) -> None:
        """Append one columnar segment (already lowered to line numbers)."""
        self._fh.write(encode_frame(lines, is_write, tags))
        self.n_segments += 1
        self.n_accesses += len(lines)

    def close(self) -> Path:
        """Seal and atomically publish the file; returns the final path."""
        if self._fh is None:
            return self.path
        self._fh.write(
            _FOOTER.pack(_END_MAGIC, self.n_segments, self.n_accesses)
        )
        self._fh.seek(0)
        self._fh.write(self._header())
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        self._fh = None
        durable_replace(self._tmp, self.path)
        return self.path

    def abort(self) -> None:
        """Discard the tmp file without publishing anything."""
        if self._fh is None:
            return
        self._fh.close()
        self._fh = None
        try:
            self._tmp.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "TraceIRWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


@dataclass(frozen=True)
class IRStats:
    """Whole-file statistics (``TraceIRReader.stats()`` / the CLI)."""

    accesses: int
    segments: int
    unique_lines: int
    writes: int
    line_bytes: int
    encoded_bytes: int

    @property
    def raw_bytes(self) -> int:
        """The decoded columnar footprint the encoding is measured against."""
        return self.accesses * RAW_BYTES_PER_ACCESS

    @property
    def compression_ratio(self) -> float:
        return self.raw_bytes / self.encoded_bytes if self.encoded_bytes else 0.0


class TraceIRReader:
    """Memory-mapped, streaming reader of one IR file.

    Opening reads the segment headers (no payload decode) with
    ``os.pread``, not through the map, to build the offset index, and
    cross-checks the footer against the header — a torn or truncated
    file is rejected up front, and an open reader holds no resident
    pages until it decodes.  :meth:`segments` then decodes one segment
    at a time, verifying each digest, so peak memory is one decoded
    segment regardless of trace length, and the encoded bytes live in
    the page cache, shared read-only across every process that maps the
    same file.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        try:
            self._fh = open(self.path, "rb")
        except OSError as exc:
            raise TraceError(f"cannot open trace IR {self.path}: {exc}") from exc
        try:
            self._mm = mmap.mmap(self._fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError) as exc:
            self._fh.close()
            raise TraceError(
                f"cannot map trace IR {self.path}: {exc}"
            ) from exc
        try:
            self._parse()
        except Exception:
            self.close()
            raise

    def _parse(self) -> None:
        # Read with pread, not through the map: only decode touches it,
        # so a reader opened to check an entry costs no resident memory.
        fd = self._fh.fileno()
        size = len(self._mm)
        if size < _HEADER.size + _FOOTER.size:
            raise TraceError(f"{self.path} is too short to be a trace IR file")
        magic, version, _flags, line_bytes, n_segments, n_accesses, meta_len = (
            _HEADER.unpack(os.pread(fd, _HEADER.size, 0))
        )
        if magic != _FILE_MAGIC:
            raise TraceError(f"{self.path} is not a trace IR file (bad magic)")
        if version != IR_VERSION:
            raise TraceError(
                f"{self.path} has IR version {version}; this build reads "
                f"version {IR_VERSION}"
            )
        self.line_bytes = line_bytes
        self.n_segments = n_segments
        self.n_accesses = n_accesses
        body = _HEADER.size + meta_len
        if body > size - _FOOTER.size:
            raise TraceError(f"{self.path}: truncated metadata block")
        try:
            meta = os.pread(fd, meta_len, _HEADER.size)
            self.meta = json.loads(meta.decode("utf-8"))
        except ValueError as exc:
            raise TraceError(f"{self.path}: corrupt metadata block: {exc}") from exc

        end_magic, f_segments, f_accesses = _FOOTER.unpack(
            os.pread(fd, _FOOTER.size, size - _FOOTER.size)
        )
        if end_magic != _END_MAGIC:
            raise TraceError(
                f"{self.path}: missing end-of-file seal (torn or truncated write)"
            )
        if f_segments != n_segments or f_accesses != n_accesses:
            raise TraceError(
                f"{self.path}: header/footer disagree "
                f"({n_segments}/{n_accesses} vs {f_segments}/{f_accesses})"
            )

        # Segment offset index from the fixed-size prefixes alone.
        offsets = []
        off = body
        limit = size - _FOOTER.size
        for _ in range(n_segments):
            if off + _SEG_PREFIX.size + _SHA_LEN > limit:
                raise TraceError(f"{self.path}: segment table overruns the file")
            prefix = _SEG_PREFIX.unpack(os.pread(fd, _SEG_PREFIX.size, off))
            if (prefix[2] > 64 or prefix[2] % 8
                    or prefix[3] not in (_TAG_UNIFORM, _TAG_RAW)):
                raise TraceError(
                    f"{self.path}: corrupt segment header at offset {off}"
                )
            offsets.append(off)
            off += _frame_size(prefix)
        if off != limit:
            raise TraceError(
                f"{self.path}: segment sizes do not add up to the footer "
                f"({off} != {limit})"
            )
        self._offsets = offsets

    def _release(self, start: int, stop: int) -> None:
        """Advise consumed page range out of this process's RSS."""
        page = mmap.PAGESIZE
        start = -(-start // page) * page  # ceil: never drop a live page
        stop = (stop // page) * page
        if stop <= start or not hasattr(mmap, "MADV_DONTNEED"):
            return
        try:
            self._mm.madvise(mmap.MADV_DONTNEED, start, stop - start)
        except (AttributeError, OSError):
            pass  # advisory only

    @property
    def encoded_bytes(self) -> int:
        return len(self._mm)

    def segment(self, index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode (and digest-verify) segment ``index``."""
        lines, w, t, _ = decode_frame(self._mm, self._offsets[index])
        return lines, w, t

    def segments(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(lines, is_write, tags)`` one decoded segment at a time.

        Pages behind the decode cursor are released
        (``MADV_DONTNEED``), so a sequential consumer's resident set
        stays one segment window no matter how large the trace — the
        encoded bytes live in the shared page cache, not in every
        worker's RSS.
        """
        released = 0
        for off in self._offsets:
            lines, w, t, end = decode_frame(self._mm, off)
            # The decoded columns are fresh arrays: the encoded bytes
            # can leave the RSS before the consumer even sees them.
            self._release(released, end)
            released = end
            yield lines, w, t

    def stats(self) -> IRStats:
        """Decode every segment (verifying digests) and summarize."""
        uniq: set[int] = set()
        writes = 0
        accesses = 0
        for lines, w, _t in self.segments():
            accesses += len(lines)
            writes += int(w.sum())
            uniq.update(np.unique(lines).tolist())
        return IRStats(
            accesses=accesses,
            segments=self.n_segments,
            unique_lines=len(uniq),
            writes=writes,
            line_bytes=self.line_bytes,
            encoded_bytes=self.encoded_bytes,
        )

    def verify(self) -> None:
        """Re-decode every segment; raises :class:`TraceError` on damage."""
        for off in self._offsets:
            decode_frame(self._mm, off)

    def close(self) -> None:
        if getattr(self, "_mm", None) is not None:
            try:
                self._mm.close()
            except BufferError:
                # A live view (e.g. held by an in-flight exception
                # traceback) pins the mapping; the OS reclaims it when
                # the last view is garbage-collected.
                pass
            self._mm = None
        if getattr(self, "_fh", None) is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TraceIRReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# -- lowering adapter ----------------------------------------------------------


def lower_chunks(
    chunks: Iterable[TraceChunk], line_bytes: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Lower byte-address chunks to columnar line segments.

    The single adapter every generator flows through: one segment per
    source chunk, so segment boundaries — and therefore any
    chunk-count-sensitive downstream protocol — match the generator's.
    """
    if line_bytes <= 0 or line_bytes & (line_bytes - 1):
        raise TraceError(f"line_bytes must be a power of two, got {line_bytes}")
    shift = np.uint64(line_bytes.bit_length() - 1)
    for chunk in chunks:
        yield chunk.addr >> shift, chunk.is_write, chunk.tag
        # Free the chunk before the next is generated: a consumer that
        # pulls several streams in turn would hold one chunk per stream.
        del chunk


def tee_trace_ir(
    path: str | Path,
    chunks: Iterable[TraceChunk],
    line_bytes: int,
    meta: dict | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Lower ``chunks``, append each segment to a new IR file at ``path``
    and yield it.

    The one loop that writes IR segments.  The file is published (fsync
    and atomic rename, :meth:`TraceIRWriter.close`) when the stream ends,
    before the final ``StopIteration``.  An error in the generator, or a
    consumer that abandons the iteration (``close()``, or the generator
    being collected), aborts the writer: nothing is published.
    """
    with TraceIRWriter(path, line_bytes, meta=meta) as writer:
        for lines, is_write, tags in lower_chunks(chunks, line_bytes):
            writer.append(lines, is_write, tags)
            yield lines, is_write, tags


def write_trace_ir(
    path: str | Path,
    chunks: Iterable[TraceChunk],
    line_bytes: int,
    meta: dict | None = None,
) -> Path:
    """Materialize a chunk stream to an IR file (drains :func:`tee_trace_ir`)."""
    for _ in tee_trace_ir(path, chunks, line_bytes, meta=meta):
        pass
    return Path(path)


# -- trace-kind registry (spec -> chunk stream) --------------------------------


def _build_matmul(params: dict) -> Iterator[TraceChunk]:
    from repro.trace.matmul_trace import MatmulTraceSpec, naive_matmul_trace

    spec = MatmulTraceSpec(
        n=params["n"],
        scheme_a=params["scheme_a"],
        scheme_b=params["scheme_b"],
        scheme_c=params["scheme_c"],
        elem_bytes=params.get("elem_bytes", 8),
    )
    return naive_matmul_trace(
        spec,
        rows=params.get("rows"),
        cols_per_chunk=params.get("cols_per_chunk", 64),
        loop_order=params.get("loop_order", "ijk"),
    )


def _build_blocked(params: dict) -> Iterator[TraceChunk]:
    from repro.trace.blocked_trace import recursive_matmul_trace, tiled_matmul_trace
    from repro.trace.matmul_trace import MatmulTraceSpec

    spec = MatmulTraceSpec(
        n=params["n"],
        scheme_a=params["scheme_a"],
        scheme_b=params["scheme_b"],
        scheme_c=params["scheme_c"],
        elem_bytes=params.get("elem_bytes", 8),
    )
    if params["variant"] == "tiled":
        return tiled_matmul_trace(spec, params["block"])
    return recursive_matmul_trace(spec, params["block"])


def _build_synthetic(params: dict) -> Iterator[TraceChunk]:
    from repro.trace import synthetic

    kwargs = {k: v for k, v in params.items() if k != "variant"}
    builders = {
        "sequential": synthetic.sequential_trace,
        "strided": synthetic.strided_trace,
        "random": synthetic.random_trace,
        "working_set_loop": synthetic.working_set_loop_trace,
    }
    try:
        builder = builders[params["variant"]]
    except KeyError:
        raise TraceError(
            f"unknown synthetic variant {params.get('variant')!r}; "
            f"available: {sorted(builders)}"
        ) from None
    return builder(**kwargs)


def _build_query(params: dict) -> Iterator[TraceChunk]:
    from repro.trace.query_trace import (
        QueryStoreSpec,
        generate_queries,
        query_access_stream,
    )

    spec = QueryStoreSpec(
        grid_side=params["grid_side"],
        tile_side=params.get("tile_side", 8),
        elem_bytes=params.get("elem_bytes", 8),
        ordering=params.get("ordering", "ho"),
        base=params.get("base", 0),
    )
    queries = generate_queries(
        spec, params["workload"], params["n_queries"],
        seed=params.get("seed", 0),
    )
    return query_access_stream(
        spec, queries, line_bytes=params["stream_line_bytes"]
    )


#: Registry behind :class:`TraceShard` and the CLI: every trace
#: generator family is reachable through the one lowering adapter.
TRACE_KINDS = {
    "matmul": _build_matmul,
    "blocked": _build_blocked,
    "synthetic": _build_synthetic,
    "query": _build_query,
}


def build_trace_chunks(kind: str, params: dict) -> Iterator[TraceChunk]:
    """Instantiate a registered generator, mapping bad specs to errors.

    An unknown kind, a missing parameter or an unexpected one raises
    :class:`TraceError` instead of leaking ``KeyError``/``TypeError``
    from the registry internals.
    """
    try:
        builder = TRACE_KINDS[kind]
    except KeyError:
        raise TraceError(
            f"unknown trace kind {kind!r}; available: {sorted(TRACE_KINDS)}"
        ) from None
    try:
        return builder(params)
    except KeyError as exc:
        raise TraceError(
            f"trace kind {kind!r} is missing parameter {exc}"
        ) from None
    except TypeError as exc:
        raise TraceError(
            f"invalid parameters for trace kind {kind!r}: {exc}"
        ) from None


def trace_fingerprint(kind: str, params: dict, line_bytes: int) -> str:
    """Content address of one trace spec at one line granularity.

    Canonical-JSON SHA-256 over the kind, its parameters, the lowering
    granularity and the codec version — the same discipline as the sweep
    cache's calibration fingerprint.  Changing any of them (including
    :data:`IR_VERSION`) moves the cache address.
    """
    return canonical_sha({
        "ir_version": IR_VERSION,
        "kind": kind,
        "params": params,
        "line_bytes": line_bytes,
    })


@dataclass(frozen=True)
class TraceShard:
    """Where one consumer's segments come from.

    Picklable, so pool workers receive their shards with their keys.
    With ``path=None`` the trace is generated and lowered.  Otherwise
    ``path`` is the trace's cache entry: memory-mapped when ``build`` is
    false, and built by this consumer when true — teed into the file as
    it is consumed (:func:`tee_trace_ir`).  :func:`trace_shards` decides
    which.
    """

    kind: str
    params: dict
    line_bytes: int
    path: str | None = None
    build: bool = False

    def segments(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(lines, is_write, tags)`` segments, one per source chunk."""
        if self.path is not None and not self.build:
            return self._mapped()
        chunks = build_trace_chunks(self.kind, self.params)
        if self.path is None:
            return lower_chunks(chunks, self.line_bytes)
        fingerprint = trace_fingerprint(self.kind, self.params, self.line_bytes)
        meta = {"kind": self.kind, "params": self.params, "fingerprint": fingerprint}
        return tee_trace_ir(self.path, chunks, self.line_bytes, meta=meta)

    def _mapped(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        with TraceIRReader(self.path) as reader:
            if reader.line_bytes != self.line_bytes:
                raise TraceError(
                    f"trace IR lowered at {reader.line_bytes} B lines "
                    f"cannot drive {self.line_bytes} B-line caches"
                )
            yield from reader.segments()


def _readable(path: Path) -> bool:
    """Whether ``path`` holds a sealed IR file (torn or corrupt: no)."""
    if not path.exists():
        return False
    try:
        with TraceIRReader(path):
            return True
    except TraceError:
        return False


class TraceIRCache:
    """Content-addressed on-disk cache of materialized trace IR files.

    Layout: ``<root>/v<IR_VERSION>/<fingerprint[:2]>/<fingerprint>.ir``.
    An unreadable or torn entry is a miss (rebuilt in place), never an
    error; publishes are atomic, and stale ``.{name}.{pid}.tmp`` debris
    from crashed writers is swept on open — the sweep-cache discipline.
    The sweep counts this process's own pid as dead, so a process must
    not open a cache while it is writing entries (a pool worker building
    its shards, or in-process streams); the caller opens one before its
    streams start.
    """

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_trace_cache_dir()
        self.dir = self.root / f"v{IR_VERSION}"
        sweep_stale_tmp(self.dir, "*/.*.tmp")

    def path_for(self, fingerprint: str) -> Path:
        return self.dir / fingerprint[:2] / f"{fingerprint}.ir"

    def shards(
        self, kind: str, params_list: list[dict], line_bytes: int
    ) -> list[TraceShard]:
        """One shard per spec: a readable entry is mapped, a missing or
        torn one is built.

        The specs' consumers run at the same time, so a missing entry is
        built by the first spec that names it only; later specs with the
        same fingerprint generate their trace without writing it, because
        two writers of one entry in one process would share a tmp file.
        """
        out = []
        building = set()
        for params in params_list:
            path = self.path_for(trace_fingerprint(kind, params, line_bytes))
            if _readable(path):
                out.append(TraceShard(kind, params, line_bytes, str(path)))
            elif path in building:
                out.append(TraceShard(kind, params, line_bytes))
            else:
                building.add(path)
                out.append(TraceShard(kind, params, line_bytes, str(path), build=True))
        return out

    def get_or_build(
        self, kind: str, params: dict, line_bytes: int
    ) -> Path:
        """Return the cached IR file for a spec, building it if absent.

        Concurrent builders race benignly: each writes its own pid-named
        tmp and the last ``os.replace`` wins with identical content (the
        builders are deterministic).
        """
        (shard,) = self.shards(kind, [params], line_bytes)
        if shard.build:
            for _ in shard.segments():
                pass
        return Path(shard.path)


def trace_shards(
    kind: str,
    params_list: list[dict],
    line_bytes: int,
    cache_dir: str | Path | None = None,
) -> list[TraceShard]:
    """One :class:`TraceShard` per spec, the way every consumer gets a trace.

    Without ``cache_dir`` each shard generates and lowers its trace.
    With one, :meth:`TraceIRCache.shards` maps the hits and lets each
    miss be built as it is replayed; opening the cache sweeps its stale
    tmp files, so call this in the process that starts the consumers,
    before any of them writes.
    """
    if cache_dir is None:
        return [TraceShard(kind, params, line_bytes) for params in params_list]
    return TraceIRCache(cache_dir).shards(kind, params_list, line_bytes)


def matmul_trace_params(
    spec, rows=None, cols_per_chunk: int = 64, loop_order: str = "ijk"
) -> dict:
    """The ``"matmul"`` registry parameters of one
    :func:`~repro.trace.matmul_trace.naive_matmul_trace` call."""
    return {
        "n": spec.n,
        "scheme_a": spec.scheme_a,
        "scheme_b": spec.scheme_b,
        "scheme_c": spec.scheme_c,
        "elem_bytes": spec.elem_bytes,
        "rows": None if rows is None else [int(r) for r in rows],
        "cols_per_chunk": cols_per_chunk,
        "loop_order": loop_order,
    }
