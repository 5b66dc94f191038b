"""The C library: the cache-replay kernel and the trace-IR frame codec's
delta loops, built on demand with the system C compiler.

One C source compiles into one shared library the first time
:func:`load` is called in a process, and loads through :mod:`ctypes` —
no build-time dependency, no wheel plumbing.  Whether it loads is the
one decision both of its layers take, each through bounded adapters:

* **The cache-replay kernel** (:func:`stream_replay`, whose docstring
  holds the array contract): the C function receives the arrays as
  pointers plus explicit ``assoc`` and ``n``, and returns the five
  counts through a small int64 ``out`` array.  The loop is compiled
  once per fixed associativity the repo's workloads replay (8, 16 and
  20 ways), where the compiler unrolls its scans, and once generic for
  every other value; ``stream_replay`` dispatches on ``assoc``.
  :func:`repro.sim.fastcache.make_cache` routes levels to it when the
  library loads (its routing table), and to the reference loop or the
  Mattson pass when it does not.  Its Python transcription stays in the
  test suite (``tests/sim/kernel_oracle.py``) as the oracle it is
  checked against.
* **The frame codec's per-access column work** for
  :mod:`repro.trace.ir`: the zigzag deltas' width, packing, and
  unpacking fused with the prefix sum (:func:`delta_width`,
  :func:`pack_deltas`, :func:`unpack_deltas`).  The loops read and
  write the little-endian bytes with shifts, so the format does not
  depend on the host's byte order, and the build uses no
  ``-march=native``.  Without the library the codec runs its NumPy
  passes.

This module imports nothing from :mod:`repro.sim` or
:mod:`repro.trace`, so both import it at module level.  :func:`load` is
the only code that compiles or ``dlopen``-s the library, and caches its
result for the process.  The library is cached under
``$XDG_CACHE_HOME/sfc-repro/clib/`` (or ``~/.cache/...``) keyed by a
digest of the source, so the compile cost is paid once per host — pool
workers and later processes just ``dlopen`` the cached artifact.  The
build is fsynced and then published with
:func:`~repro.robust.fsutil.durable_replace`, so concurrent builders race
benignly and a crash cannot leave a torn library under the final name;
its SHA-256 follows in a ``.sha256`` sidecar, and a cached artifact that
misses that digest or does not load is rebuilt once.  Any other
failure — no compiler, sandboxed tmpdir, broken toolchain — makes
:func:`load` return ``None`` with a recorded reason
(:func:`unavailable_reason`, naming each compiler's failure): the caches
replay without the kernel and the codec runs its NumPy passes, with
bit-identical results.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.robust.fsutil import durable_replace, durable_write

__all__ = [
    "delta_width",
    "load",
    "pack_deltas",
    "stream_replay",
    "unavailable_reason",
    "unpack_deltas",
]

_C_SOURCE = r"""
#include <stdint.h>

#define EMPTY 0xFFFFFFFFFFFFFFFFULL

#if defined(__GNUC__)
#define INLINE static inline __attribute__((always_inline))
#else
#define INLINE static inline
#endif

/* Exact LRU replay of one chunk in trace order over canonical MRU-first
 * stacks, writing the miss stream and the per-tag counts as it goes.
 * Mirrored statement for statement by the Python oracle the tests hold;
 * the array contract is in the Python adapter's docstring.  out[]
 * receives n_miss, evictions, writebacks, writes and write_misses.
 * Inlined into stream_replay once per fixed associativity (fixed = 1,
 * assoc a constant), where the compiler unrolls the scans, and once
 * generic.  A fixed copy shifts a missing set's ways and then its dirty
 * bits rather than both in one loop: the same values land (the arrays
 * do not overlap), but a uint8 store may alias the uint64 ways, which
 * keeps the one-loop form from becoming straight moves. */
INLINE void replay(uint64_t *slots, uint8_t *dirty,
                   const int64_t assoc, const int fixed, uint64_t set_mask,
                   const uint64_t *lines, const uint8_t *is_write,
                   const uint8_t *tags, int64_t n,
                   uint64_t *miss_lines, uint8_t *miss_flags,
                   uint8_t *miss_tags, int64_t *tag_accesses,
                   int64_t *tag_read_misses, int64_t *tag_write_misses,
                   int64_t *out)
{
    int64_t n_miss = 0, evictions = 0, writebacks = 0;
    int64_t writes = 0, write_misses = 0;
    for (int64_t i = 0; i < n; ++i) {
        const uint64_t line = lines[i];
        const uint8_t w = is_write[i];
        const uint8_t t = tags[i];
        const uint64_t r = line & set_mask;
        uint64_t *row = slots + r * (uint64_t)assoc;
        uint8_t *drow = dirty + r * (uint64_t)assoc;
        ++tag_accesses[t];
        writes += w;
        int64_t p = -1;
        for (int64_t k = 0; k < assoc; ++k) {
            const uint64_t v = row[k];
            if (v == line) { p = k; break; }
            if (v == EMPTY) break;
        }
        if (p >= 0) {
            const uint8_t d = (uint8_t)(drow[p] | w);
            for (int64_t k = p; k > 0; --k) {
                row[k] = row[k - 1];
                drow[k] = drow[k - 1];
            }
            row[0] = line;
            drow[0] = d;
        } else {
            miss_lines[n_miss] = line;
            miss_flags[n_miss] = w;
            miss_tags[n_miss] = t;
            ++n_miss;
            if (w) {
                ++write_misses;
                ++tag_write_misses[t];
            } else {
                ++tag_read_misses[t];
            }
            if (row[assoc - 1] != EMPTY) {
                ++evictions;
                if (drow[assoc - 1]) ++writebacks;
            }
            if (fixed) {
                /* The ways, then the dirty bits: two runs of constant
                 * length the compiler turns into straight moves. */
                for (int64_t k = assoc - 1; k > 0; --k) row[k] = row[k - 1];
                for (int64_t k = assoc - 1; k > 0; --k) drow[k] = drow[k - 1];
            } else {
                for (int64_t k = assoc - 1; k > 0; --k) {
                    row[k] = row[k - 1];
                    drow[k] = drow[k - 1];
                }
            }
            row[0] = line;
            drow[0] = w;
        }
    }
    out[0] = n_miss;
    out[1] = evictions;
    out[2] = writebacks;
    out[3] = writes;
    out[4] = write_misses;
}

#define REPLAY(ASSOC, FIXED) replay(slots, dirty, (ASSOC), (FIXED), \
    set_mask, lines, is_write, tags, n, miss_lines, miss_flags, miss_tags, \
    tag_accesses, tag_read_misses, tag_write_misses, out)

/* The replay kernel: fixed-associativity copies for the ways the repo's
 * workloads replay (8, 16 and 20), the generic loop for any other. */
void stream_replay(uint64_t *slots, uint8_t *dirty,
                   int64_t assoc, uint64_t set_mask,
                   const uint64_t *lines, const uint8_t *is_write,
                   const uint8_t *tags, int64_t n,
                   uint64_t *miss_lines, uint8_t *miss_flags,
                   uint8_t *miss_tags, int64_t *tag_accesses,
                   int64_t *tag_read_misses, int64_t *tag_write_misses,
                   int64_t *out)
{
    switch (assoc) {
    case 8: REPLAY(8, 1); break;
    case 16: REPLAY(16, 1); break;
    case 20: REPLAY(20, 1); break;
    default: REPLAY(assoc, 0); break;
    }
}

/* -- IR frame codec (repro.trace.ir): line deltas ----------------------
 * A frame stores lines[1:] - lines[:-1] (wrapping) zigzagged to
 * (d << 1) ^ -(d >> 63), each code in the low wb bytes, little-endian.
 * Bytes are assembled and split with shifts, so the layout does not
 * depend on the host's byte order; the fixed-width copies let the
 * compiler merge them into word moves where it can. */

INLINE uint64_t zigzag(uint64_t prev, uint64_t line)
{
    const uint64_t d = line - prev;
    return (d << 1) ^ (0 - (d >> 63));
}

/* Bitwise OR of every code, whose bit length is the widest code's. */
uint64_t delta_bits(const uint64_t *lines, int64_t n)
{
    uint64_t acc = 0;
    for (int64_t i = 1; i < n; ++i) acc |= zigzag(lines[i - 1], lines[i]);
    return acc;
}

INLINE void pack(const uint64_t *lines, int64_t n, const int64_t wb,
                 uint8_t *dst)
{
    for (int64_t i = 1; i < n; ++i, dst += wb) {
        const uint64_t c = zigzag(lines[i - 1], lines[i]);
        for (int64_t j = 0; j < wb; ++j) dst[j] = (uint8_t)(c >> (8 * j));
    }
}

/* Write the n - 1 codes of lines[] at wb bytes each into dst. */
void delta_pack(const uint64_t *lines, int64_t n, int64_t wb, uint8_t *dst)
{
    switch (wb) {
    case 1: pack(lines, n, 1, dst); break;
    case 2: pack(lines, n, 2, dst); break;
    case 3: pack(lines, n, 3, dst); break;
    case 4: pack(lines, n, 4, dst); break;
    case 5: pack(lines, n, 5, dst); break;
    case 6: pack(lines, n, 6, dst); break;
    case 7: pack(lines, n, 7, dst); break;
    case 8: pack(lines, n, 8, dst); break;
    default: break;
    }
}

INLINE void unpack(const uint8_t *src, int64_t n, const int64_t wb,
                   uint64_t line, uint64_t *out)
{
    if (n < 1) return;
    out[0] = line;
    for (int64_t i = 1; i < n; ++i, src += wb) {
        uint64_t c = 0;
        for (int64_t j = 0; j < wb; ++j) c |= (uint64_t)src[j] << (8 * j);
        line += (c >> 1) ^ (0 - (c & 1));
        out[i] = line;
    }
}

/* Rebuild n lines from the first line and the n - 1 codes of wb bytes
 * each at src: unzigzag and wrapping prefix sum in one pass. */
void delta_unpack(const uint8_t *src, int64_t n, int64_t wb, uint64_t first,
                  uint64_t *out)
{
    switch (wb) {
    case 0: unpack(src, n, 0, first, out); break;
    case 1: unpack(src, n, 1, first, out); break;
    case 2: unpack(src, n, 2, first, out); break;
    case 3: unpack(src, n, 3, first, out); break;
    case 4: unpack(src, n, 4, first, out); break;
    case 5: unpack(src, n, 5, first, out); break;
    case 6: unpack(src, n, 6, first, out); break;
    case 7: unpack(src, n, 7, first, out); break;
    case 8: unpack(src, n, 8, first, out); break;
    default: break;
    }
}
"""

_COMPILERS = ("cc", "gcc", "clang")

#: ``(library, None)`` once loaded, ``(None, reason)`` once unavailable,
#: ``None`` before the first :func:`load`.
_state: tuple[ctypes.CDLL | None, str | None] | None = None


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(root) / "sfc-repro" / "clib"


def _compile(out_path: Path) -> None:
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_path.parent) as tmp:
        src = Path(tmp) / "clib.c"
        src.write_text(_C_SOURCE)
        tmp_lib = Path(tmp) / "clib.so"
        failures = []
        for cc in _COMPILERS:
            try:
                subprocess.run(
                    [cc, "-O3", "-shared", "-fPIC", "-o", str(tmp_lib), str(src)],
                    check=True,
                    capture_output=True,
                    text=True,
                    timeout=120,
                )
                break
            except subprocess.CalledProcessError as exc:
                failures.append(f"{cc}: {exc.stderr.strip()[-300:] or exc}")
            except (OSError, subprocess.SubprocessError) as exc:
                failures.append(f"{cc}: {exc}")
        else:
            raise RuntimeError(f"no working C compiler ({'; '.join(failures)})")
        # The bytes reach the disk before the name does, so a crash
        # cannot publish an empty or torn library; the rename is atomic,
        # so concurrent builders race benignly.  The digest follows the
        # library, so one without its own digest is rebuilt, not loaded.
        with open(tmp_lib, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
            os.fsync(fh.fileno())
        durable_replace(tmp_lib, out_path)
        durable_write(_digest_path(out_path), digest)


def _digest_path(lib_path: Path) -> Path:
    return lib_path.with_name(lib_path.name + ".sha256")


def _intact(lib_path: Path) -> bool:
    """Whether ``lib_path`` matches the SHA-256 its build published:
    ``dlopen`` of a truncated library can die of SIGBUS, not raise."""
    try:
        digest = hashlib.sha256(lib_path.read_bytes()).hexdigest()
        return _digest_path(lib_path).read_text() == digest
    except OSError:
        return False


def _open(lib_path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(lib_path))
    u64p = np.ctypeslib.ndpointer(np.uint64, flags="C_CONTIGUOUS")
    u8p = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
    i64p = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    i64, u64 = ctypes.c_int64, ctypes.c_uint64
    signatures = {
        "stream_replay": (None, [
            u64p, u8p, i64, u64, u64p, u8p, u8p, i64,
            u64p, u8p, u8p, i64p, i64p, i64p, i64p,
        ]),
        "delta_bits": (u64, [u64p, i64]),
        "delta_pack": (None, [u64p, i64, i64, u8p]),
        "delta_unpack": (None, [u8p, i64, i64, u64, u64p]),
    }
    for name, (restype, argtypes) in signatures.items():
        fn = getattr(lib, name)
        fn.restype = restype
        fn.argtypes = argtypes
    return lib


def _artifact() -> Path:
    """Where the library is cached, keyed by a digest of its source."""
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    return _cache_dir() / f"clib-{digest}.so"


def _build_and_open() -> ctypes.CDLL:
    lib_path = _artifact()
    if _intact(lib_path):
        try:
            return _open(lib_path)
        except OSError:
            pass  # an artifact that does not load: build it again, once
    _compile(lib_path)
    return _open(lib_path)


def load() -> ctypes.CDLL | None:
    """The library, built (or found cached) and loaded on the first call
    in a process; ``None`` where that failed (see
    :func:`unavailable_reason`)."""
    global _state
    if _state is None:
        try:
            _state = (_build_and_open(), None)
        except Exception as exc:
            _state = (None, f"{type(exc).__name__}: {exc}")
    return _state[0]


def unavailable_reason() -> str | None:
    """Why the library did not load, or ``None`` when it did."""
    load()
    return _state[1]


def _lib() -> ctypes.CDLL:
    lib = load()
    if lib is None:  # pragma: no cover - callers check load() first
        raise RuntimeError(f"C library unavailable: {unavailable_reason()}")
    return lib


def stream_replay(
    slots, dirty, set_mask, lines, is_write, tags,
    miss_lines, miss_flags, miss_tags,
    tag_accesses, tag_read_misses, tag_write_misses,
):
    """Replay one chunk **in trace order** against the canonical
    MRU-first stacks, computing each access's set index on the fly —
    exactly the reference :class:`~repro.sim.cache.Cache` loop, in flat
    arrays, with no preprocessing (no partition by set, no collapse of
    repeated lines).

    Array contract::

        stream_replay(slots, dirty, set_mask, lines, is_write, tags,
                      miss_lines, miss_flags, miss_tags,
                      tag_accesses, tag_read_misses, tag_write_misses)
            -> (n_miss, evictions, writebacks, writes, write_misses)

    * ``slots`` is the engine's full ``(n_sets, assoc)`` uint64 state
      with empty-way sentinels (all ones) packed at each row's tail,
      ``dirty`` a uint8 0/1 view of the same shape and ``set_mask`` the
      uint64 ``n_sets - 1`` mask; both arrays are updated in place.
    * ``lines`` (uint64), ``is_write`` (uint8 0/1) and ``tags`` (uint8)
      are the chunk, ``n`` accesses long.
    * ``miss_lines`` (uint64), ``miss_flags`` (uint8) and ``miss_tags``
      (uint8) are outputs at least ``n`` long: the kernel writes the
      chunk's misses to their first ``n_miss`` entries, in trace order.
    * ``tag_accesses``, ``tag_read_misses`` and ``tag_write_misses`` are
      the level's 256-entry int64 per-tag counters, incremented in place.

    The returned counts are the chunk's misses, evictions, writebacks,
    write accesses and write misses, so the caller does its accounting
    without another pass over the chunk or its misses.  ctypes checks
    every array's dtype and contiguity; the sizes the C loop indexes by
    are checked here, so a call that breaks the contract raises instead
    of writing out of bounds.
    """
    lib = _lib()
    n = len(lines)
    if (
        dirty.shape != slots.shape
        or int(set_mask) >= len(slots)
        or len(is_write) != n
        or len(tags) != n
        or min(len(miss_lines), len(miss_flags), len(miss_tags)) < n
        or min(len(tag_accesses), len(tag_read_misses),
               len(tag_write_misses)) < 256
    ):
        raise ValueError("stream_replay arrays do not fit the kernel contract")
    out = np.empty(5, dtype=np.int64)
    lib.stream_replay(
        slots, dirty, np.int64(slots.shape[1]), np.uint64(set_mask),
        lines, is_write, tags, np.int64(n),
        miss_lines, miss_flags, miss_tags,
        tag_accesses, tag_read_misses, tag_write_misses, out,
    )
    return tuple(out.tolist())


# -- IR frame codec adapters (repro.trace.ir) -----------------------------
#
# The frame's header, size checks and digest stay in Python and run
# first; these adapters check again that the C loops stay inside the
# arrays they are given, so a bad call raises instead of overrunning.


def delta_width(lines: np.ndarray) -> int:
    """Byte width of the widest zigzag code of ``lines``' wrapping deltas
    (0 for fewer than two lines)."""
    return (int(_lib().delta_bits(lines, len(lines))).bit_length() + 7) // 8


def pack_deltas(lines: np.ndarray, wb: int, out: np.ndarray) -> None:
    """Write the ``len(lines) - 1`` zigzag delta codes of ``lines``, ``wb``
    bytes each, little-endian, into the uint8 array ``out``."""
    n = len(lines)
    if not 0 <= wb <= 8 or len(out) < max(0, n - 1) * wb:
        raise ValueError("delta_pack sizes do not fit the codec contract")
    _lib().delta_pack(lines, n, wb, out)


def unpack_deltas(
    src: np.ndarray, n: int, wb: int, first: int, out: np.ndarray
) -> None:
    """Rebuild ``n`` lines into the uint64 array ``out`` from ``first`` and
    the ``n - 1`` little-endian ``wb``-byte codes in the uint8 array
    ``src`` (unzigzag and prefix sum in one pass)."""
    if (not 0 <= wb <= 8 or n < 0 or len(src) < max(0, n - 1) * wb
            or len(out) < n):
        raise ValueError("delta_unpack sizes do not fit the codec contract")
    _lib().delta_unpack(src, n, wb, first, out)
