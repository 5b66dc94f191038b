"""The byte-matrix frame codec :mod:`repro.trace.ir` is checked against.

:func:`encode_frame` / :func:`decode_frame` here are the codec as it was
before the one-pass-per-column rewrite: packing gathers an ``(n, 8)``
little-endian byte matrix down to ``(n, wb)`` columns, unpacking
zero-fills an ``(n, 8)`` matrix and copies the packed bytes into it, and
the frame is assembled by concatenation.  Same format, same bytes: the
production codec must encode byte-identically and decode to equal
arrays (``tests/properties/test_ir_properties.py``), on the C codec and
on the NumPy fallback :func:`numpy_codec` forces.
"""

import hashlib
from contextlib import contextmanager

import numpy as np
import pytest

from repro.errors import TraceError
from repro import _clib
from repro.trace.ir import (
    _SEG_PREFIX,
    _SHA_LEN,
    _TAG_RAW,
    _TAG_UNIFORM,
    _frame_size,
)


def zigzag(deltas: np.ndarray) -> np.ndarray:
    """Map wrapped uint64 deltas to small uint64 codes (bijective)."""
    s = deltas.view(np.int64)
    return ((s << np.int64(1)) ^ (s >> np.int64(63))).view(np.uint64)


def pack_width(values: np.ndarray, width: int) -> bytes:
    """Pack uint64 ``values`` (< 2**width) to ``width // 8`` bytes each."""
    n = len(values)
    if width == 0 or n == 0:
        return b""
    by = values.astype("<u8", copy=False).view(np.uint8).reshape(n, 8)
    return np.ascontiguousarray(by[:, : width // 8]).tobytes()


def unpack_width(buf: np.ndarray, n: int, width: int) -> np.ndarray:
    """Inverse of :func:`pack_width`; ``buf`` is a uint8 array/view."""
    if width == 0 or n == 0:
        return np.zeros(n, dtype=np.uint64)
    wb = width // 8
    by = np.zeros((n, 8), dtype=np.uint8)
    by[:, :wb] = np.asarray(buf[: n * wb]).reshape(n, wb)
    return by.view("<u8").ravel().astype(np.uint64, copy=False)


def encode_frame(
    lines: np.ndarray, is_write: np.ndarray, tags: np.ndarray
) -> bytes:
    """Encode one segment — header, SHA-256 digest, columnar payload."""
    lines = np.ascontiguousarray(lines, dtype=np.uint64)
    is_write = np.ascontiguousarray(is_write, dtype=bool)
    tags = np.ascontiguousarray(tags, dtype=np.uint8)
    n = len(lines)
    if n:
        first_line = int(lines[0])
        codes = zigzag(np.diff(lines))
        width = int(codes.max()).bit_length() if len(codes) else 0
        width = (width + 7) & ~7
        packed_lines = pack_width(codes, width)
    else:
        first_line = 0
        width = 0
        packed_lines = b""

    if n == 0 or (tags == tags[0]).all():
        tag_mode = _TAG_UNIFORM
        uniform_tag = int(tags[0]) if n else 0
        tag_bytes = b""
    else:
        tag_mode = _TAG_RAW
        uniform_tag = 0
        tag_bytes = tags.tobytes()

    payload = (
        packed_lines
        + np.packbits(is_write, bitorder="little").tobytes()
        + tag_bytes
    )
    prefix = _SEG_PREFIX.pack(
        n, first_line, width, tag_mode, uniform_tag, len(packed_lines)
    )
    sha = hashlib.sha256(prefix + payload).digest()
    return prefix + sha + payload


def decode_frame(
    buf, offset: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Decode one frame from ``buf`` at ``offset`` (digest checked)."""
    view = memoryview(buf)
    prefix = _SEG_PREFIX.unpack_from(view, offset)
    n, first_line, width, tag_mode, uniform_tag, lines_nbytes = prefix
    end = offset + _frame_size(prefix)
    sha_off = offset + _SEG_PREFIX.size
    payload_off = sha_off + _SHA_LEN
    digest = hashlib.sha256(
        bytes(view[offset:sha_off]) + bytes(view[payload_off:end])
    ).digest()
    if digest != bytes(view[sha_off:payload_off]):
        raise TraceError("IR segment digest mismatch (corrupt payload)")

    raw = np.frombuffer(view, dtype=np.uint8, count=end - payload_off,
                        offset=payload_off)
    codes = unpack_width(raw[:lines_nbytes], max(0, n - 1), width)
    lines = np.empty(n, dtype=np.uint64)
    if n:
        lines[0] = np.uint64(first_line)
        if n > 1:
            sign = codes & np.uint64(1)
            codes >>= np.uint64(1)
            np.subtract(np.uint64(0), sign, out=sign)
            codes ^= sign
            np.cumsum(codes, out=lines[1:])
            lines[1:] += np.uint64(first_line)
    w_nbytes = (n + 7) // 8
    w_raw = raw[lines_nbytes:lines_nbytes + w_nbytes]
    is_write = np.unpackbits(w_raw, count=n, bitorder="little").astype(bool)
    if tag_mode == _TAG_UNIFORM:
        tags = np.full(n, uniform_tag, dtype=np.uint8)
    else:
        tags = raw[lines_nbytes + w_nbytes:].copy()
    return lines, is_write, tags, end


@contextmanager
def numpy_codec():
    """Run the production codec on its NumPy fallback, as on a host where
    the C library does not load (the patch ``test_backends.py`` uses to
    take the C backend away)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_clib, "_state", (None, "forced by test"))
        yield
