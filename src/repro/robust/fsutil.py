"""Durable filesystem primitives shared by the crash-safe subsystems.

POSIX durability has two halves: ``fsync`` on the *file* makes its bytes
durable, but the file's very existence (its directory entry) lives in the
parent directory, which needs its own ``fsync``.  A journal that fsyncs
every append but never the directory can lose the whole file to a crash
right after creation; an atomic ``os.replace`` publish can likewise
evaporate.  These helpers close that gap:

* :func:`fsync_dir` — fsync a directory's own fd (directory-entry
  durability).
* :func:`durable_replace` — ``os.replace`` followed by a parent-directory
  fsync: the atomic-publish idiom, made crash-durable.
* :func:`durable_write` — write a ``.{name}.{pid}.tmp`` sibling, fsync
  it, then :func:`durable_replace` it over the target: the whole
  publish, for writers of small whole files (sweep-cache entries,
  metrics snapshots).
* :func:`sweep_stale_tmp` — remove the ``.{name}.{pid}.tmp`` debris a
  crashed writer leaves behind; the content-addressed caches call it
  when they open.

Directory fsync is best-effort: some filesystems refuse to open or sync
directories (``EACCES``/``EINVAL``); those errors are swallowed because
the rename itself already succeeded and most filesystems order the
metadata anyway.  A failed *open* of the parent is likewise tolerated.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

__all__ = [
    "fsync_dir",
    "durable_replace",
    "durable_write",
    "sweep_stale_tmp",
    "TMP_MAX_AGE_S",
]

#: Age past which a tmp file is debris even if its writer pid is alive
#: (a healthy writer renames it within milliseconds).
TMP_MAX_AGE_S = 3600.0


def fsync_dir(path: str | Path) -> None:
    """Fsync a directory so the entries it holds survive a crash."""
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(path, flags)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs-dependent
        pass
    finally:
        os.close(fd)


def durable_replace(src: str | Path, dst: str | Path) -> None:
    """Atomically publish ``src`` at ``dst`` and fsync the parent dir."""
    os.replace(src, dst)
    fsync_dir(Path(dst).parent)


def durable_write(path: str | Path, text: str) -> None:
    """Atomically and durably publish ``text`` (UTF-8) as the file ``path``.

    The text goes to a ``.{name}.{pid}.tmp`` sibling (unique per writing
    process, so concurrent processes never share a staging file), is
    fsynced, and only then renamed over ``path``.  A reader sees the old
    file or the complete new one; after a crash the published file holds
    its bytes, never an empty or torn body.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        durable_replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


def sweep_stale_tmp(directory: str | Path, pattern: str = ".*.tmp") -> None:
    """Remove ``.{name}.{pid}.tmp`` debris left by crashed writers.

    ``pattern`` is globbed under ``directory``.  A tmp file is stale when
    its name carries no pid, when the pid is this process (a previous
    life of the same pid cannot still be writing), when that process is
    gone, or when the file is older than :data:`TMP_MAX_AGE_S`.  Races
    with a live writer are harmless: removal failures are ignored and
    the writer's rename still wins.
    """
    try:
        entries = list(Path(directory).glob(pattern))
    except OSError:
        return
    now = time.time()
    for tmp in entries:
        try:
            pid = int(tmp.name.rsplit(".", 2)[-2])
        except (ValueError, IndexError):
            pid = None
        stale = pid is None or pid == os.getpid()
        if not stale:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                stale = True
            except OSError:
                pass  # e.g. EPERM: pid exists but isn't ours
        if not stale:
            try:
                stale = now - tmp.stat().st_mtime > TMP_MAX_AGE_S
            except OSError:
                continue
        if stale:
            try:
                tmp.unlink()
            except OSError:
                pass
