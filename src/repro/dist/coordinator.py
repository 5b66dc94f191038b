"""The distributed sweep coordinator: board creation, reaping, collection.

A :class:`DistCoordinator` owns exactly three responsibilities, all
restart-safe because every one of them is re-derivable from the mount:

* **Sharding** — cut the config grid into immutable shard specs and lay
  the task board down (manifest last, so a half-created board is
  invisible).
* **Collection** — fold committed shard payloads into the fsynced
  checkpoint journal exactly once, evicting torn or corrupt commits so
  their shards get redone.
* **Reaping** — expire leases whose owner's heartbeat exceeded the TTL
  (the shard immediately becomes claimable again) and offer speculative
  tickets for stragglers, so one slow worker cannot serialize the tail.

Kill the coordinator at any instant and a restarted one resumes: the
manifest pins the grid + calibration fingerprint, the journal replays
the shards already collected, and the results directory supplies the
commits that landed while nobody was watching.  The final
:class:`~repro.experiments.results.ResultSet` is assembled purely from
journal records, in grid order — bit-identical to the serial
``run_grid``.
"""

from __future__ import annotations

import time
from dataclasses import asdict
from pathlib import Path

from repro import obs
from repro.errors import DistError
from repro.experiments.configs import SampleConfig
from repro.experiments.results import ResultSet, SampleResult
from repro.robust.journal import CheckpointJournal
from repro.dist.board import TaskBoard

__all__ = ["DistCoordinator"]


class DistCoordinator:
    """Create (or resume) a board and drive it to completion.

    Parameters
    ----------
    root:
        Board directory on the shared mount.
    configs:
        Grid to sweep (required when creating; on resume it is verified
        against the board's pinned grid digest if given).
    model:
        Analytic model; its calibration fingerprint is pinned in the
        manifest and every worker must match it.
    shard_size:
        Points per shard (default: ~32 shards over the grid).
    ttl_s:
        Lease TTL; a lease whose owner has not heartbeat for this long
        is expired and its shard reissued.
    speculate_after_s:
        Straggler threshold: a live lease older than this gets a
        speculative ticket so a second worker races it (first commit
        wins, the loser is verified identical and discarded).  ``None``
        disables speculation.
    resume:
        Open the existing board at ``root`` instead of creating one.
    """

    def __init__(
        self,
        root,
        configs: list[SampleConfig] | None = None,
        model=None,
        shard_size: int | None = None,
        measure: str = "model",
        sample_hz: float = 10.0,
        ttl_s: float = 5.0,
        speculate_after_s: float | None = None,
        poll_s: float = 0.05,
        resume: bool = False,
        clock=time.time,
        sleep=time.sleep,
    ):
        from repro.experiments.sweep import MEASURE_MODES, calibration_fingerprint
        from repro.sim.analytic import PerformanceModel

        if measure not in MEASURE_MODES:
            raise DistError(f"unknown measure mode {measure!r}")
        if ttl_s <= 0 or poll_s <= 0:
            raise DistError("ttl_s and poll_s must be positive")
        self.root = Path(root)
        self.model = model or PerformanceModel()
        self.fingerprint = calibration_fingerprint(self.model)
        self.measure = measure
        self.sample_hz = sample_hz
        self.ttl_s = ttl_s
        self.speculate_after_s = speculate_after_s
        self.poll_s = poll_s
        self.clock = clock
        self.sleep = sleep
        self.stats = {
            "shards": 0, "points": 0, "collected": 0, "resumed": 0,
            "leases_expired": 0, "speculative_offered": 0, "evicted": 0,
        }
        self._journaled: dict[int, list] = {}
        self._configs: list[SampleConfig] | None = None
        self._complete_journaled = False

        if resume:
            self.board = TaskBoard.open(self.root, clock=clock)
            self._verify_board(configs)
        else:
            if configs is None:
                raise DistError("creating a board requires configs")
            self.board = self._create_board(configs, shard_size)
        self.journal = CheckpointJournal(self.board.journal_path)
        self._replay_journal()
        self.stats["shards"] = self.board.n_shards
        self.stats["points"] = sum(
            len(keys) for keys in self.board.manifest["shard_keys"]
        )

    # -- board setup -----------------------------------------------------------

    @staticmethod
    def _unique(configs: list[SampleConfig]) -> list[SampleConfig]:
        seen: dict[str, SampleConfig] = {}
        for cfg in configs:
            seen.setdefault(cfg.key, cfg)
        return list(seen.values())

    def _create_board(self, configs, shard_size) -> TaskBoard:
        unique = self._unique(configs)
        self._configs = unique
        size = shard_size or max(1, -(-len(unique) // 32))
        shards = [
            [asdict(cfg) for cfg in unique[i : i + size]]
            for i in range(0, len(unique), size)
        ]
        manifest = {
            "study": "sweep",
            "fingerprint": self.fingerprint,
            "measure": self.measure,
            "sample_hz": self.sample_hz,
            "shard_keys": [
                [cfg.key for cfg in unique[i : i + size]]
                for i in range(0, len(unique), size)
            ],
        }
        return TaskBoard.create(self.root, manifest, shards, clock=self.clock)

    def _verify_board(self, configs) -> None:
        m = self.board.manifest
        if m.get("study") != "sweep":
            raise DistError(f"board at {self.root} is not a sweep board")
        if m["fingerprint"] != self.fingerprint:
            raise DistError(
                "board was built for a different calibration "
                f"({m['fingerprint'][:12]} != {self.fingerprint[:12]}); "
                "refusing to resume"
            )
        if m["measure"] != self.measure:
            raise DistError(
                f"board measures {m['measure']!r}, not {self.measure!r}"
            )
        if configs is not None:
            unique = self._unique(configs)
            want = [cfg.key for cfg in unique]
            have = [k for keys in m["shard_keys"] for k in keys]
            if want != have:
                raise DistError(
                    "board grid does not match the requested configs; "
                    "refusing to resume"
                )
            self._configs = unique

    def _replay_journal(self) -> None:
        replay = self.journal.replay()
        board_seen = False
        for kind, payload in replay.records:
            if kind == "board":
                if payload.get("sha") != self.board.manifest["sha"]:
                    raise DistError(
                        "journal belongs to a different board "
                        "(manifest digest mismatch)"
                    )
                board_seen = True
            elif kind == "shard":
                self._journaled[payload["shard"]] = payload["results"]
            elif kind == "complete":
                self._complete_journaled = True
        if not board_seen:
            self.journal.append("board", {"sha": self.board.manifest["sha"]})
        self.stats["resumed"] = len(self._journaled)

    # -- the control loop ------------------------------------------------------

    def step(self) -> bool:
        """One collect + reap pass; ``True`` when the sweep is complete."""
        self._collect()
        if len(self._journaled) >= self.board.n_shards:
            self._finalize()
            return True
        self._reap()
        return False

    def _collect(self) -> None:
        for i in self.board.committed_ids():
            if i in self._journaled:
                continue
            payload = self.board.read_result(i)
            if payload is None:
                # Torn or corrupt commit: it never happened.  Evict so
                # the shard is claimable again.
                self.board.evict_result(i)
                self.stats["evicted"] += 1
                obs.count("dist.torn_commits")
                continue
            self.journal.append(
                "shard",
                {
                    "shard": i,
                    "owner": payload.get("owner"),
                    "results": payload["results"],
                },
            )
            self._journaled[i] = payload["results"]
            self.stats["collected"] += 1
            obs.count("dist.shards_collected")
            # The shard is durable in the journal; its lease bookkeeping
            # is garbage now.
            self.board.release(i)
            self.board.release(i, speculative=True)
            self.board.retract_speculative(i)

    def _reap(self) -> None:
        now = self.clock()
        for i in self.board.shard_ids():
            if i in self._journaled:
                continue
            for speculative in (False, True):
                info = self.board.lease_info(i, speculative)
                if info is None:
                    continue
                if self.board.lease_stale(i, self.ttl_s, speculative):
                    self.board.release(i, speculative)
                    self.stats["leases_expired"] += 1
                    obs.count("dist.leases_expired")
                elif (
                    not speculative
                    and self.speculate_after_s is not None
                    and now - float(info.get("claimed_at", 0.0))
                    > self.speculate_after_s
                ):
                    if self.board.offer_speculative(i):
                        self.stats["speculative_offered"] += 1
                        obs.count("dist.speculative_offered")

    def _finalize(self) -> None:
        # Leftover leases/tickets of a finished sweep are noise for the
        # next observer; clear them so "zero orphaned leases" holds.
        for i in self.board.shard_ids():
            self.board.release(i)
            self.board.release(i, speculative=True)
            self.board.retract_speculative(i)
        if not self._complete_journaled:
            self.journal.append("complete", {"shards": self.board.n_shards})
            self._complete_journaled = True

    def run(self, deadline_s: float | None = None, tick=None) -> ResultSet:
        """Drive the board to completion and return the assembled results.

        ``tick`` is called once per poll iteration — the sweep engine
        uses it to babysit its local worker processes (respawn the dead,
        notice a wedged fleet).  ``deadline_s`` bounds the wait; a board
        that cannot finish (no workers left alive anywhere) surfaces as
        :class:`DistError` instead of an infinite poll.
        """
        t0 = self.clock()
        with obs.span("dist.coordinate", shards=self.board.n_shards) as span:
            while not self.step():
                if tick is not None:
                    tick()
                if (
                    deadline_s is not None
                    and self.clock() - t0 > deadline_s
                ):
                    raise DistError(
                        f"sweep did not complete within {deadline_s}s: "
                        f"{len(self._journaled)}/{self.board.n_shards} "
                        "shards committed"
                    )
                self.sleep(self.poll_s)
            span.set(**{k: v for k, v in self.stats.items()})
        return self.result_set()

    # -- results ---------------------------------------------------------------

    def result_set(self) -> ResultSet:
        """Assemble the final results from the journal, in grid order."""
        if len(self._journaled) < self.board.n_shards:
            raise DistError(
                f"sweep incomplete: {len(self._journaled)}/"
                f"{self.board.n_shards} shards"
            )
        by_key = {}
        for i in sorted(self._journaled):
            for d in self._journaled[i]:
                r = SampleResult.from_dict(d)
                by_key[r.config.key] = r
        out = ResultSet()
        for keys in self.board.manifest["shard_keys"]:
            for key in keys:
                out.add(by_key[key])
        return out
