"""The distributed sweep worker: claim, compute, commit, repeat.

A :class:`DistWorker` joins a :class:`~repro.dist.board.TaskBoard`,
verifies it speaks the same calibration fingerprint, and then loops:
heartbeat, claim the lowest unleased uncommitted shard (falling back to
speculative straggler tickets), evaluate its points through the very same
:class:`~repro.experiments.runner.ExperimentRunner` arithmetic as the
serial ``run_grid`` path, and publish the shard exactly once through the
board's first-commit-wins protocol — every point also landing in the
shared content-addressed :class:`~repro.experiments.sweep.SweepCache`,
so a reissued shard replays from disk instead of recomputing.

Fault injection (chaos suite): compute-kind faults
(:data:`~repro.robust.faults.FAULT_KINDS`) are addressed by
``(worker_id, cumulative points evaluated)``, protocol-kind faults
(:data:`~repro.robust.faults.DIST_FAULT_KINDS`) by ``(worker_id,
cumulative shards claimed)`` — two disjoint step spaces, queried with
the ``kinds=`` filter so one plan can schedule both.
"""

from __future__ import annotations

import time

from repro import obs
from repro.errors import DistError
from repro.experiments.configs import SampleConfig
from repro.experiments.runner import ExperimentRunner
from repro.robust.faults import (
    DIST_FAULT_KINDS,
    FAULT_KINDS,
    FaultPlan,
    corrupt_blob,
    execute_fault,
)
from repro.dist.board import TaskBoard

__all__ = ["DistWorker", "WorkerStats", "worker_main"]


def worker_main(
    root,
    worker_id: int,
    model=None,
    fault_plan=None,
    ttl_s: float = 5.0,
    poll_s: float = 0.05,
    deadline_s: float | None = None,
    obs_ctx=None,
) -> None:
    """Spawn-process entry point (used by ``SweepEngine(transport="dist")``)."""
    with obs.attach(obs_ctx):
        DistWorker(
            root,
            worker_id=worker_id,
            model=model,
            fault_plan=fault_plan,
            ttl_s=ttl_s,
            poll_s=poll_s,
            deadline_s=deadline_s,
        ).run()


class WorkerStats(dict):
    """Counters of one worker run (a plain dict with attribute sugar)."""

    def __getattr__(self, name):
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None


def _config_from_dict(d: dict) -> SampleConfig:
    return SampleConfig(
        scheme=d["scheme"],
        size_exp=int(d["size_exp"]),
        frequency=d["frequency"],
        thread_config=d["thread_config"],
    )


class DistWorker:
    """One worker process of a distributed sweep.

    Parameters
    ----------
    root:
        The task-board directory (any shared mount).
    worker_id:
        Integer identity used for fault-plan addressing and the default
        owner name.  Owners must be unique per process; the default
        ``w<worker_id>`` is unique as long as ids are.
    model:
        Analytic model; its calibration fingerprint must match the
        board's or the worker refuses to join (:class:`DistError`).
    ttl_s / heartbeat_s:
        Lease TTL the coordinator reaps against, and how often this
        worker refreshes its beacon (default ``ttl_s / 4``).
    deadline_s:
        Wall-clock budget; the worker exits cleanly when it runs out
        (a safety net for orphaned workers, not a scheduling tool).
    fault_plan:
        Deterministic chaos schedule (see module docstring).
    """

    def __init__(
        self,
        root,
        worker_id: int = 0,
        owner: str | None = None,
        model=None,
        ttl_s: float = 5.0,
        heartbeat_s: float | None = None,
        poll_s: float = 0.05,
        deadline_s: float | None = None,
        fault_plan: FaultPlan | None = None,
        clock=time.time,
        sleep=time.sleep,
    ):
        if ttl_s <= 0 or poll_s <= 0:
            raise DistError("ttl_s and poll_s must be positive")
        self.worker_id = worker_id
        self.owner = owner or f"w{worker_id}"
        self.model = model
        self.ttl_s = ttl_s
        self.heartbeat_s = heartbeat_s if heartbeat_s is not None else ttl_s / 4
        self.poll_s = poll_s
        self.deadline_s = deadline_s
        self.fault_plan = fault_plan
        self.clock = clock
        self.sleep = sleep
        self.board = TaskBoard.open(root, clock=clock)
        self._points_seen = 0
        self._claims_seen = 0
        self._corrupt_commit = False
        self._last_beat = -float("inf")
        self.stats = WorkerStats(
            claimed=0, committed=0, duplicates=0, released=0,
            cache_hits=0, points=0,
        )

    # -- plumbing --------------------------------------------------------------

    def _beat(self, force: bool = False) -> None:
        now = self.clock()
        if force or now - self._last_beat >= self.heartbeat_s:
            self.board.heartbeat(self.owner)
            self._last_beat = now

    def _protocol_fault(self):
        if self.fault_plan is None:
            return None
        spec = self.fault_plan.fire(
            self.worker_id, self._claims_seen, kinds=DIST_FAULT_KINDS
        )
        self._claims_seen += 1
        return spec

    def _compute_fault(self):
        if self.fault_plan is None:
            self._points_seen += 1
            return None
        spec = self.fault_plan.fire(
            self.worker_id, self._points_seen, kinds=FAULT_KINDS
        )
        self._points_seen += 1
        return spec

    def _verify_manifest(self) -> dict:
        m = self.board.manifest
        if m.get("study") != "sweep":
            raise DistError(f"board study {m.get('study')!r} is not a sweep")
        from repro.experiments.sweep import calibration_fingerprint
        from repro.sim.analytic import PerformanceModel

        if self.model is None:
            self.model = PerformanceModel()
        fp = calibration_fingerprint(self.model)
        if fp != m["fingerprint"]:
            raise DistError(
                "worker calibration fingerprint does not match the board's "
                f"({fp[:12]} != {m['fingerprint'][:12]}); results would not "
                "compose"
            )
        return m

    # -- the claim loop --------------------------------------------------------

    def _next_claim(self, committed: set[int]):
        """Claim the next shard: primaries first, then straggler tickets.

        Returns ``(shard_id, speculative)`` or ``None``.
        """
        for i in self.board.shard_ids():
            if i in committed or self.board.lease_info(i) is not None:
                continue
            if self.board.claim(i, self.owner):
                return i, False
        for i in self.board.speculative_ids():
            if i in committed or self.board.lease_info(i, speculative=True) is not None:
                continue
            if self.board.claim(i, self.owner, speculative=True):
                return i, True
        return None

    def run(self) -> WorkerStats:
        """Work the board until it completes (or the deadline passes)."""
        manifest = self._verify_manifest()
        t0 = self.clock()
        with obs.span(
            "dist.worker", worker=self.worker_id, owner=self.owner,
        ) as wspan:
            self._beat(force=True)
            from repro.experiments.sweep import SweepCache

            cache = SweepCache(
                self.board.cache_dir, manifest["fingerprint"],
                manifest["measure"],
            )
            runner = ExperimentRunner(self.model)
            while True:
                if (
                    self.deadline_s is not None
                    and self.clock() - t0 > self.deadline_s
                ):
                    break
                self._beat()
                committed = set(self.board.committed_ids())
                if len(committed) >= self.board.n_shards:
                    break
                claim = self._next_claim(committed)
                if claim is None:
                    self.sleep(self.poll_s)
                    continue
                shard_id, speculative = claim
                self.stats["claimed"] += 1
                obs.count("dist.claims", speculative=speculative)
                self._work_shard(shard_id, speculative, runner, cache, manifest)
            wspan.set(**self.stats)
        return self.stats

    # -- shard execution -------------------------------------------------------

    def _work_shard(self, shard_id, speculative, runner, cache, manifest):
        pfault = self._protocol_fault()
        with obs.span(
            "dist.lease", shard=shard_id, owner=self.owner,
            speculative=speculative,
            fault=pfault.kind if pfault else None,
        ):
            if pfault is not None and pfault.kind == "lease_steal":
                # The reaper (or a partition healing the wrong way) took
                # our lease; we compute on regardless — only the commit
                # protocol decides who wins.
                self.board.release(shard_id, speculative)
            try:
                results = self._evaluate(
                    shard_id, runner, cache, manifest, pfault
                )
            except Exception:
                # A failing shard must not stay leased until the TTL:
                # hand it back immediately and let someone (possibly us,
                # past the fault's step budget) redo it.
                self.board.release(shard_id, speculative)
                self.stats["released"] += 1
                obs.count("dist.releases")
                return
            outcome = self.board.commit(
                shard_id,
                [r.to_dict() for r in results],
                self.owner,
                _stage_hook=self._stage_hook(pfault),
            )
            if outcome == "duplicate":
                self.stats["duplicates"] += 1
                obs.count("dist.duplicate_commits")
            else:
                self.stats["committed"] += 1
                obs.count("dist.commits")
            self.board.release(shard_id, speculative)

    def _evaluate(self, shard_id, runner, cache, manifest, pfault):
        from repro.experiments.sweep import _measured_result

        suppress_beats = pfault is not None and pfault.kind == "stale_heartbeat"
        results = []
        for d in self.board.load_shard(shard_id):
            cfg = _config_from_dict(d)
            if not suppress_beats:
                self._beat()
            elif pfault.delay_s:
                # A worker that stopped beating is indistinguishable
                # from a dead one; give the reaper and a speculative
                # twin the window the plan asked for.
                self.sleep(pfault.delay_s)
            cfault = self._compute_fault()
            if cfault is not None:
                if cfault.kind == "corrupt":
                    # Tampers with the outgoing commit bytes, applied in
                    # the stage hook — only the publisher holds them.
                    self._corrupt_commit = True
                else:
                    execute_fault(cfault)
            cached = cache.get(cfg)
            if cached is not None:
                self.stats["cache_hits"] += 1
                results.append(cached)
            else:
                r = runner.run(cfg)
                if manifest["measure"] == "sampled":
                    r = _measured_result(r, manifest["sample_hz"])
                cache.put(r)
                results.append(r)
            self.stats["points"] += 1
        return results

    def _stage_hook(self, pfault):
        """Commit-window chaos: executed between staging and publish."""
        kind = pfault.kind if pfault is not None else None
        corrupt = self._corrupt_commit
        self._corrupt_commit = False
        if kind not in ("torn_commit", "delayed_rename") and not corrupt:
            return None
        delay = pfault.delay_s if pfault is not None else 0.0

        def hook(tmp, final):
            import os

            if corrupt:
                tmp.write_bytes(corrupt_blob(tmp.read_bytes()))
            if kind == "delayed_rename":
                self.sleep(delay)
            elif kind == "torn_commit":
                # A crash mid-publish on a filesystem without atomic
                # rename: half a record at the *final* path, then death.
                if not final.exists():
                    final.write_bytes(
                        tmp.read_bytes()[: max(8, tmp.stat().st_size // 3)]
                    )
                os._exit(3)

        return hook
