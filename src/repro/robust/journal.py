"""Crash-safe append-only checkpoint journals.

A :class:`CheckpointJournal` is a JSON-lines file where every record
carries a SHA-256 of its canonical payload.  Appends are atomic at the
line level (single ``write`` of one ``\\n``-terminated line, flushed and
fsynced), so a crash can damage at most the *tail* of the file; replay
verifies each record's digest and tolerates a truncated or corrupt tail
by dropping it — reported, never raised.

:class:`StudyCheckpoint` layers study semantics on top: a ``begin``
record pins the study name and a fingerprint of its parameters, ``point``
records store completed units of work keyed by name.  Resuming replays
the journal, checks the parameter fingerprint (mismatch is a
:class:`~repro.errors.CheckpointError` — the journal belongs to a
different study), and hands back the completed points so the caller can
skip them.  Results recovered from a journal are the exact values the
original run computed, so a resumed run's output is identical to an
uninterrupted one.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import CheckpointError
from repro.robust.fsutil import fsync_dir

__all__ = [
    "JOURNAL_VERSION",
    "CheckpointJournal",
    "JournalReplay",
    "StudyCheckpoint",
    "canonical_sha",
    "payload_sha",
]

#: Bump when the record layout changes; older journals fail parameter
#: verification rather than being misread.
JOURNAL_VERSION = 1


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def canonical_sha(payload) -> str:
    """SHA-256 hex digest of ``payload``'s canonical JSON: the content
    address of trace-IR and sweep-cache entries and of advise requests."""
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def payload_sha(kind: str, payload) -> str:
    """SHA-256 over the record kind and its canonical-JSON payload."""
    return hashlib.sha256(
        (kind + "\x00" + _canonical(payload)).encode("utf-8")
    ).hexdigest()


@dataclass
class JournalReplay:
    """Outcome of reading a journal back.

    ``records`` holds the verified ``(kind, payload)`` pairs in append
    order; ``dropped`` counts damaged lines (JSON errors, digest
    mismatches, missing trailing newline) discarded from the tail, and
    ``tail_error`` describes the first damage encountered.
    """

    records: list = field(default_factory=list)
    dropped: int = 0
    tail_error: str | None = None

    @property
    def corrupt_tail(self) -> bool:
        return self.dropped > 0


class CheckpointJournal:
    """Append-only JSONL journal with per-record SHA-256 integrity.

    One record per line: ``{"v": 1, "kind": ..., "payload": ...,
    "sha": ...}``.  Records are verified on replay; everything from the
    first damaged line onward is dropped (a crashed writer can only have
    damaged the tail — anything after a torn line is untrustworthy).
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def append(self, kind: str, payload) -> None:
        """Durably append one record.

        The line is written with a single ``write`` call and fsynced, so
        concurrent readers and crash recovery see either the whole
        record or a (detectable) torn tail — never an interleaving.
        """
        record = {
            "v": JOURNAL_VERSION,
            "kind": kind,
            "payload": payload,
            "sha": payload_sha(kind, payload),
        }
        line = json.dumps(record, sort_keys=True) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        existed = self.path.exists()
        fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, line.encode("utf-8"))
            os.fsync(fd)
        finally:
            os.close(fd)
        if not existed:
            # The append made the *bytes* durable, but the file's
            # directory entry is metadata of the parent: without this a
            # crash right after the first append can lose the whole
            # journal.
            fsync_dir(self.path.parent)
        # Lazy import: repro.obs.core imports payload_sha from this
        # module, so a top-level obs import here would be circular.
        from repro.obs import count

        count("journal.appends", kind=kind)

    def replay(self) -> JournalReplay:
        """Read the journal back, verifying every record.

        A missing file replays as empty.  Damage (truncated final line,
        malformed JSON, wrong digest, wrong version) stops the replay at
        the damaged line; it and all later lines are counted in
        ``dropped`` and summarized in ``tail_error``.
        """
        out = JournalReplay()
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return out
        except OSError as exc:
            raise CheckpointError(f"cannot read journal {self.path}: {exc}") from exc
        if not raw:
            return out
        lines = raw.split(b"\n")
        # A well-formed journal ends with a newline, so the final split
        # element is empty; anything else is a torn last record.
        complete, tail = lines[:-1], lines[-1]
        for i, line in enumerate(complete):
            err = None
            try:
                record = json.loads(line.decode("utf-8"))
                if record.get("v") != JOURNAL_VERSION:
                    err = f"unsupported journal version {record.get('v')!r}"
                elif record.get("sha") != payload_sha(
                    record.get("kind", ""), record.get("payload")
                ):
                    err = "record digest mismatch"
            except (UnicodeDecodeError, ValueError, AttributeError) as exc:
                err = f"malformed record: {exc}"
            if err is not None:
                out.dropped = len(complete) - i + (1 if tail else 0)
                out.tail_error = f"line {i + 1}: {err}"
                return out
            out.records.append((record["kind"], record["payload"]))
        if tail:
            out.dropped += 1
            out.tail_error = f"line {len(complete) + 1}: truncated record"
        return out


class StudyCheckpoint:
    """Checkpoint/resume protocol for the experiment studies.

    ``params`` must uniquely determine the study's outputs; its
    fingerprint is pinned in a ``begin`` record.  With ``resume=False``
    any existing journal at ``path`` is replaced.  With ``resume=True``
    the journal is replayed: the *last* ``begin`` record must match the
    current study and parameters (else :class:`CheckpointError`), and the
    ``point`` records that follow it become :attr:`completed`.
    """

    def __init__(
        self,
        path: str | Path,
        study: str,
        params: dict,
        resume: bool = False,
    ):
        self.journal = CheckpointJournal(path)
        self.study = study
        self.fingerprint = payload_sha("params", params)
        self.completed: dict[str, object] = {}
        self.dropped = 0
        self.tail_error: str | None = None
        if resume:
            self._load(params)
        else:
            try:
                self.journal.path.unlink()
            except FileNotFoundError:
                pass
            self.journal.append(
                "begin",
                {"study": study, "fingerprint": self.fingerprint, "params": params},
            )

    def _load(self, params: dict) -> None:
        replay = self.journal.replay()
        self.dropped = replay.dropped
        self.tail_error = replay.tail_error
        begin = None
        points: dict[str, object] = {}
        for kind, payload in replay.records:
            if kind == "begin":
                begin = payload
                points = {}
            elif kind == "point" and begin is not None:
                points[payload["name"]] = payload["value"]
        if begin is None:
            # Nothing usable on disk: start a fresh section.
            self.journal.append(
                "begin",
                {
                    "study": self.study,
                    "fingerprint": self.fingerprint,
                    "params": params,
                },
            )
            return
        if (
            begin.get("study") != self.study
            or begin.get("fingerprint") != self.fingerprint
        ):
            raise CheckpointError(
                f"journal {self.journal.path} records study "
                f"{begin.get('study')!r} with different parameters; "
                f"refusing to resume {self.study!r} from it"
            )
        self.completed = points

    def record(self, name: str, value) -> None:
        """Durably record one completed unit of work."""
        self.journal.append("point", {"name": name, "value": value})
        self.completed[name] = value

    def done(self, name: str) -> bool:
        return name in self.completed

    def get(self, name: str):
        return self.completed[name]
