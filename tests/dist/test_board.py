"""TaskBoard protocol unit tests: leases, heartbeats, commits.

Everything here is single-process with a hand-advanced clock; the
multi-process churn lives in ``test_chaos.py``.
"""

import json

import pytest

from repro.dist import BOARD_VERSION, TaskBoard, commit_sha
from repro.errors import DistError


class FakeClock:
    def __init__(self, t: float = 1000.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


SHARDS = [
    [{"scheme": "mo", "size_exp": 8, "frequency": 2.6, "thread_config": "1s"}],
    [{"scheme": "ho", "size_exp": 8, "frequency": 2.6, "thread_config": "1s"}],
    [{"scheme": "rm", "size_exp": 8, "frequency": 2.6, "thread_config": "1s"}],
]
MANIFEST = {"study": "sweep", "fingerprint": "f" * 64, "measure": "model",
            "sample_hz": 10.0, "shard_keys": [["a"], ["b"], ["c"]]}


def make_board(root, clock=None):
    return TaskBoard.create(
        root / "board", dict(MANIFEST), SHARDS, clock=clock or FakeClock()
    )


class TestCreateOpen:
    def test_round_trip(self, tmp_path):
        board = make_board(tmp_path)
        again = TaskBoard.open(tmp_path / "board")
        assert again.n_shards == 3
        assert again.manifest["fingerprint"] == MANIFEST["fingerprint"]
        assert board.manifest["sha"] == again.manifest["sha"]
        assert list(again.shard_ids()) == [0, 1, 2]

    def test_shard_specs_verified(self, tmp_path):
        board = make_board(tmp_path)
        assert board.load_shard(1) == SHARDS[1]
        spec_path = board.shards_dir / "0001.json"
        spec = json.loads(spec_path.read_text())
        spec["configs"][0]["scheme"] = "rm"
        spec_path.write_text(json.dumps(spec, sort_keys=True))
        with pytest.raises(DistError, match="digest"):
            board.load_shard(1)

    def test_missing_board_refuses(self, tmp_path):
        with pytest.raises(DistError, match="no task board"):
            TaskBoard.open(tmp_path / "absent")

    def test_tampered_manifest_refuses(self, tmp_path):
        board = make_board(tmp_path)
        m = json.loads(board.manifest_path.read_text())
        m["fingerprint"] = "0" * 64
        board.manifest_path.write_text(json.dumps(m, sort_keys=True))
        with pytest.raises(DistError, match="digest"):
            TaskBoard.open(tmp_path / "board")

    def test_version_skew_refuses(self, tmp_path):
        from repro.robust import payload_sha

        board = make_board(tmp_path)
        m = json.loads(board.manifest_path.read_text())
        m.pop("sha")
        m["version"] = BOARD_VERSION + 1
        m["sha"] = payload_sha("dist-board", m)
        board.manifest_path.write_text(json.dumps(m, sort_keys=True))
        with pytest.raises(DistError, match="version"):
            TaskBoard.open(tmp_path / "board")

    def test_create_twice_refuses(self, tmp_path):
        make_board(tmp_path)
        with pytest.raises(DistError, match="already exists"):
            make_board(tmp_path)


class TestLeases:
    def test_claim_is_exclusive(self, tmp_path):
        board = make_board(tmp_path)
        assert board.claim(0, "w0")
        assert not board.claim(0, "w1")
        info = board.lease_info(0)
        assert info["owner"] == "w0" and info["speculative"] is False

    def test_release_reopens_the_shard(self, tmp_path):
        board = make_board(tmp_path)
        board.claim(0, "w0")
        board.release(0)
        assert board.lease_info(0) is None
        assert board.claim(0, "w1")

    def test_speculative_lease_is_separate(self, tmp_path):
        board = make_board(tmp_path)
        assert board.claim(0, "w0")
        assert board.claim(0, "w1", speculative=True)
        assert board.lease_info(0)["owner"] == "w0"
        assert board.lease_info(0, speculative=True)["owner"] == "w1"

    def test_unreadable_lease_reads_as_ancient(self, tmp_path):
        board = make_board(tmp_path)
        (board.leases_dir / "0000.lease").write_bytes(b"\x00garbage")
        info = board.lease_info(0)
        assert info["owner"] is None and info["claimed_at"] == 0.0
        assert board.lease_stale(0, ttl_s=5.0)

    def test_orphaned_leases_listing(self, tmp_path):
        board = make_board(tmp_path)
        assert board.orphaned_leases() == []
        board.claim(1, "w0")
        board.claim(2, "w1", speculative=True)
        assert [p.name for p in board.orphaned_leases()] == [
            "0001.lease", "0002.spec",
        ]


class TestHeartbeatsAndTTL:
    def test_fresh_heartbeat_keeps_lease_alive(self, tmp_path):
        clock = FakeClock()
        board = make_board(tmp_path, clock)
        board.claim(0, "w0")
        board.heartbeat("w0")
        clock.advance(4.0)
        assert not board.lease_stale(0, ttl_s=5.0)
        clock.advance(2.0)
        assert board.lease_stale(0, ttl_s=5.0)

    def test_beat_renews(self, tmp_path):
        clock = FakeClock()
        board = make_board(tmp_path, clock)
        board.claim(0, "w0")
        for _ in range(5):
            clock.advance(3.0)
            board.heartbeat("w0")
        assert not board.lease_stale(0, ttl_s=5.0)

    def test_claim_then_die_before_first_beat_expires(self, tmp_path):
        clock = FakeClock()
        board = make_board(tmp_path, clock)
        board.claim(0, "w0")  # no heartbeat ever written
        clock.advance(6.0)
        assert board.lease_stale(0, ttl_s=5.0)

    def test_heartbeat_age_none_when_never_beat(self, tmp_path):
        board = make_board(tmp_path)
        assert board.heartbeat_age("ghost") is None


class TestSpeculation:
    def test_offer_is_idempotent(self, tmp_path):
        board = make_board(tmp_path)
        assert board.offer_speculative(1)
        assert not board.offer_speculative(1)
        assert board.speculative_ids() == [1]
        board.retract_speculative(1)
        assert board.speculative_ids() == []


class TestCommits:
    RESULTS = [{"config_scheme": "mo", "seconds": 1.5}]

    def test_commit_and_read(self, tmp_path):
        board = make_board(tmp_path)
        assert board.commit(0, self.RESULTS, "w0") == "committed"
        payload = board.read_result(0)
        assert payload["results"] == self.RESULTS
        assert payload["owner"] == "w0"
        assert board.committed_ids() == [0]

    def test_identical_duplicate_discarded(self, tmp_path):
        board = make_board(tmp_path)
        board.commit(0, self.RESULTS, "w0")
        assert board.commit(0, self.RESULTS, "w1") == "duplicate"
        # First committer's payload survives untouched.
        assert board.read_result(0)["owner"] == "w0"

    def test_disagreeing_duplicate_raises(self, tmp_path):
        board = make_board(tmp_path)
        board.commit(0, self.RESULTS, "w0")
        other = [{"config_scheme": "mo", "seconds": 9.9}]
        with pytest.raises(DistError, match="not deterministic"):
            board.commit(0, other, "w1")

    def test_owner_excluded_from_commit_sha(self):
        assert commit_sha(3, self.RESULTS) == commit_sha(3, self.RESULTS)
        assert commit_sha(3, self.RESULTS) != commit_sha(4, self.RESULTS)

    def test_torn_commit_reads_as_none_and_is_evicted(self, tmp_path):
        board = make_board(tmp_path)
        board.commit(0, self.RESULTS, "w0")
        path = board.results_dir / "0000.json"
        path.write_bytes(path.read_bytes()[:20])
        assert board.committed_ids() == [0]  # the file exists ...
        assert board.read_result(0) is None  # ... but it is no commit
        board.evict_result(0)
        assert board.committed_ids() == []

    def test_commit_over_torn_file_wins(self, tmp_path):
        board = make_board(tmp_path)
        (board.results_dir / "0000.json").write_bytes(b"{ torn")
        assert board.commit(0, self.RESULTS, "w0") == "committed"
        assert board.read_result(0)["results"] == self.RESULTS

    def test_no_tmp_debris_after_commit(self, tmp_path):
        board = make_board(tmp_path)
        board.commit(0, self.RESULTS, "w0")
        board.commit(0, self.RESULTS, "w1")
        assert not list(board.results_dir.glob(".*"))
