"""Checkpoint journal: durability, integrity, tail-corruption tolerance."""

import json

import pytest

from repro.errors import CheckpointError
from repro.robust import CheckpointJournal, StudyCheckpoint, payload_sha


class TestJournal:
    def test_round_trip(self, tmp_path):
        j = CheckpointJournal(tmp_path / "j.jsonl")
        j.append("begin", {"study": "s"})
        j.append("point", {"name": "a", "value": [1, 2.5, "x"]})
        replay = j.replay()
        assert replay.records == [
            ("begin", {"study": "s"}),
            ("point", {"name": "a", "value": [1, 2.5, "x"]}),
        ]
        assert not replay.corrupt_tail

    def test_missing_file_is_empty(self, tmp_path):
        replay = CheckpointJournal(tmp_path / "absent.jsonl").replay()
        assert replay.records == [] and replay.dropped == 0

    def test_truncated_tail_dropped_and_reported(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = CheckpointJournal(path)
        j.append("point", {"name": "a", "value": 1})
        j.append("point", {"name": "b", "value": 2})
        # Tear the last record mid-line, as a crash mid-write would.
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        replay = j.replay()
        assert [p["name"] for _, p in replay.records] == ["a"]
        assert replay.corrupt_tail
        assert "truncated" in replay.tail_error

    def test_digest_mismatch_stops_replay(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = CheckpointJournal(path)
        j.append("point", {"name": "a", "value": 1})
        j.append("point", {"name": "b", "value": 2})
        j.append("point", {"name": "c", "value": 3})
        lines = path.read_text().splitlines()
        # Tamper with the middle record's payload but keep its sha.
        rec = json.loads(lines[1])
        rec["payload"]["value"] = 999
        lines[1] = json.dumps(rec, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        replay = j.replay()
        # Everything from the damaged line on is untrustworthy.
        assert [p["name"] for _, p in replay.records] == ["a"]
        assert replay.dropped == 2
        assert "digest mismatch" in replay.tail_error

    def test_garbage_line_stops_replay(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = CheckpointJournal(path)
        j.append("point", {"name": "a", "value": 1})
        with path.open("ab") as fh:
            fh.write(b"\x00\xffnot json\n")
        replay = j.replay()
        assert len(replay.records) == 1
        assert replay.corrupt_tail

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        rec = {
            "v": 999,
            "kind": "point",
            "payload": {},
            "sha": payload_sha("point", {}),
        }
        path.write_text(json.dumps(rec) + "\n")
        replay = CheckpointJournal(path).replay()
        assert replay.records == []
        assert "version" in replay.tail_error

    def test_append_is_one_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = CheckpointJournal(path)
        for i in range(10):
            j.append("point", {"name": str(i), "value": i})
        assert len(path.read_text().splitlines()) == 10


class FsyncRecorder:
    """Wrap ``os.fsync`` and classify every synced fd as file or dir."""

    def __init__(self):
        import os as _os

        self._real = _os.fsync
        self.file_syncs = 0
        self.dir_paths = []

    def __call__(self, fd):
        import os as _os
        import stat as _stat

        st = _os.fstat(fd)
        if _stat.S_ISDIR(st.st_mode):
            # /proc is unavailable for resolving an fd path portably;
            # record the inode instead and compare via os.stat later.
            self.dir_paths.append(st.st_ino)
        else:
            self.file_syncs += 1
        self._real(fd)


class TestJournalDirectoryDurability:
    """Creating the journal must fsync the *parent directory* too.

    ``fsync(file)`` makes the bytes durable but the file's directory
    entry lives in the parent; without a directory fsync a crash right
    after the first append can lose the whole journal.
    """

    def test_first_append_fsyncs_parent_dir(self, tmp_path, monkeypatch):
        import os as _os

        rec = FsyncRecorder()
        monkeypatch.setattr(_os, "fsync", rec)
        path = tmp_path / "sub" / "j.jsonl"
        CheckpointJournal(path).append("point", {"name": "a", "value": 1})
        assert rec.file_syncs == 1
        parent_ino = _os.stat(path.parent).st_ino
        assert parent_ino in rec.dir_paths

    def test_later_appends_skip_the_dir_fsync(self, tmp_path, monkeypatch):
        import os as _os

        path = tmp_path / "j.jsonl"
        j = CheckpointJournal(path)
        j.append("point", {"name": "a", "value": 1})  # creates the file
        rec = FsyncRecorder()
        monkeypatch.setattr(_os, "fsync", rec)
        j.append("point", {"name": "b", "value": 2})
        j.append("point", {"name": "c", "value": 3})
        assert rec.file_syncs == 2
        assert rec.dir_paths == []  # entry already durable; bytes only

    def test_durable_replace_fsyncs_target_dir(self, tmp_path, monkeypatch):
        import os as _os

        from repro.robust import durable_replace

        src = tmp_path / "a.tmp"
        src.write_text("x")
        rec = FsyncRecorder()
        monkeypatch.setattr(_os, "fsync", rec)
        durable_replace(src, tmp_path / "a.json")
        assert _os.stat(tmp_path).st_ino in rec.dir_paths


class TestStudyCheckpoint:
    PARAMS = {"n": 32, "schemes": ["mo", "ho"]}

    def test_fresh_run_truncates_existing(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        first = StudyCheckpoint(path, "demo", self.PARAMS)
        first.record("a", 1)
        second = StudyCheckpoint(path, "demo", self.PARAMS, resume=False)
        assert second.completed == {}
        # The journal holds only the new begin record.
        assert len(path.read_text().splitlines()) == 1

    def test_resume_recovers_points(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        ck = StudyCheckpoint(path, "demo", self.PARAMS)
        ck.record("a", {"mpi": 1.5})
        ck.record("b", [1, 2])
        resumed = StudyCheckpoint(path, "demo", self.PARAMS, resume=True)
        assert resumed.done("a") and resumed.done("b")
        assert resumed.get("a") == {"mpi": 1.5}
        assert resumed.get("b") == [1, 2]
        assert not resumed.done("c")

    def test_resume_wrong_params_refuses(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        StudyCheckpoint(path, "demo", self.PARAMS).record("a", 1)
        with pytest.raises(CheckpointError, match="refusing to resume"):
            StudyCheckpoint(path, "demo", {"n": 64}, resume=True)

    def test_resume_wrong_study_refuses(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        StudyCheckpoint(path, "demo", self.PARAMS)
        with pytest.raises(CheckpointError):
            StudyCheckpoint(path, "other", self.PARAMS, resume=True)

    def test_resume_missing_file_starts_fresh(self, tmp_path):
        path = tmp_path / "absent.jsonl"
        ck = StudyCheckpoint(path, "demo", self.PARAMS, resume=True)
        assert ck.completed == {}
        assert path.exists()  # begin record written

    def test_resume_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        ck = StudyCheckpoint(path, "demo", self.PARAMS)
        ck.record("a", 1)
        ck.record("b", 2)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 5])  # tear the "b" record
        resumed = StudyCheckpoint(path, "demo", self.PARAMS, resume=True)
        assert resumed.done("a")
        assert not resumed.done("b")  # dropped, will be recomputed
        assert resumed.dropped == 1

    def test_restart_section_wins(self, tmp_path):
        # A fresh (resume=False) run followed by a crash and resume must
        # only honour points recorded after the *last* begin.
        path = tmp_path / "ckpt.jsonl"
        StudyCheckpoint(path, "demo", self.PARAMS).record("stale", 0)
        journal = CheckpointJournal(path)
        journal.append(
            "begin",
            {
                "study": "demo",
                "fingerprint": payload_sha("params", self.PARAMS),
                "params": self.PARAMS,
            },
        )
        journal.append("point", {"name": "fresh", "value": 1})
        resumed = StudyCheckpoint(path, "demo", self.PARAMS, resume=True)
        assert resumed.done("fresh")
        assert not resumed.done("stale")
