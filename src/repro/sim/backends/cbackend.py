"""C transcription of the set-replay kernel, built on demand with cc.

Hosts without numba usually still have a system C compiler; this backend
compiles the ~60-line kernel from :mod:`repro.sim.backends.kernels` into
a shared library the first time ``backend="c"`` is requested and loads
it through :mod:`ctypes` — no build-time dependency, no wheel plumbing.
:func:`c_stream_replay` keeps the array contract documented in
:mod:`~repro.sim.backends.kernels`: the C function receives the same
arrays as pointers plus explicit ``assoc`` and ``n``, and returns the
five counts through a small int64 ``out`` array.

The library is cached under ``$XDG_CACHE_HOME/sfc-repro/cbackend/`` (or
``~/.cache/...``) keyed by a digest of the source, so the compile cost
is paid once per host — pool workers and later processes just ``dlopen``
the cached artifact.  The build is atomic (compile to a temp name, then
``os.replace``) so concurrent workers cannot observe a half-written
library.  Any failure — no compiler, sandboxed tmpdir, broken toolchain
— marks the backend unavailable with a recorded reason; callers degrade
to ``"python"`` via :func:`repro.sim.backends.resolve_backend`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["c_available", "c_unavailable_reason", "c_stream_replay"]

_C_SOURCE = r"""
#include <stdint.h>

#define EMPTY 0xFFFFFFFFFFFFFFFFULL

/* Exact LRU replay of one chunk in trace order over canonical MRU-first
 * stacks, writing the miss stream and the per-tag counts as it goes.
 * Mirrors kernels._stream_replay_py statement for statement; the array
 * contract is documented there.  out[] receives n_miss, evictions,
 * writebacks, writes and write_misses. */
void stream_replay(uint64_t *slots, uint8_t *dirty,
                   int64_t assoc, uint64_t set_mask,
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
            for (int64_t k = assoc - 1; k > 0; --k) {
                row[k] = row[k - 1];
                drow[k] = drow[k - 1];
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
"""

_COMPILERS = ("cc", "gcc", "clang")

#: Tri-state build result: None = not attempted, (lib, None) = loaded,
#: (None, reason) = unavailable.
_state: tuple[object, str | None] | None = None


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(root) / "sfc-repro" / "cbackend"


def _compile(out_path: Path) -> None:
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_path.parent) as tmp:
        src = Path(tmp) / "stream_replay.c"
        src.write_text(_C_SOURCE)
        tmp_lib = Path(tmp) / "stream_replay.so"
        last_err: Exception | None = None
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
            except (OSError, subprocess.SubprocessError) as exc:
                last_err = exc
        else:
            detail = getattr(last_err, "stderr", "") or str(last_err)
            raise RuntimeError(f"no working C compiler ({detail.strip()})")
        # Atomic publish: concurrent builders race benignly.
        os.replace(tmp_lib, out_path)


def _load():
    global _state
    if _state is not None:
        return _state
    try:
        digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
        lib_path = _cache_dir() / f"stream_replay-{digest}.so"
        if not lib_path.exists():
            _compile(lib_path)
        lib = ctypes.CDLL(str(lib_path))
        fn = lib.stream_replay
        fn.restype = None
        u64p = np.ctypeslib.ndpointer(np.uint64, flags="C_CONTIGUOUS")
        u8p = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
        i64p = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
        fn.argtypes = [
            u64p, u8p, ctypes.c_int64, ctypes.c_uint64,
            u64p, u8p, u8p, ctypes.c_int64,
            u64p, u8p, u8p, i64p, i64p, i64p, i64p,
        ]
        _state = (fn, None)
    except Exception as exc:
        _state = (None, f"{type(exc).__name__}: {exc}")
    return _state


def c_available() -> bool:
    """True iff the shared library compiled (or was cached) and loaded."""
    return _load()[0] is not None


def c_unavailable_reason() -> str | None:
    """Why the C backend is unusable, or ``None`` when it is available."""
    return _load()[1]


def c_stream_replay(
    slots, dirty, set_mask, lines, is_write, tags,
    miss_lines, miss_flags, miss_tags,
    tag_accesses, tag_read_misses, tag_write_misses,
):
    """ctypes adapter matching the Python/numba kernel signature.

    ctypes checks every array's dtype and contiguity; the sizes the C
    loop indexes by are checked here, so a call that breaks the contract
    raises instead of writing out of bounds.
    """
    fn, reason = _load()
    if fn is None:  # pragma: no cover - callers check c_available() first
        raise RuntimeError(f"C backend unavailable: {reason}")
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
    fn(
        slots, dirty, np.int64(slots.shape[1]), np.uint64(set_mask),
        lines, is_write, tags, np.int64(n),
        miss_lines, miss_flags, miss_tags,
        tag_accesses, tag_read_misses, tag_write_misses, out,
    )
    return tuple(out.tolist())
