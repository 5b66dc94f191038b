"""Distributed sweep protocol: scale-out throughput and crash recovery.

Run as a script to produce the committed ``BENCH_dist.json``::

    PYTHONPATH=src python benchmarks/bench_dist.py

Two questions, each answered against the serial runner's ground truth:

* **Scale-out** — the same grid through ``SweepEngine(transport="dist")``
  at 1, 2 and 4 workers.  The ``model`` workload is microseconds per
  point, so it measures the protocol's *overhead* floor (lease files,
  heartbeats, hard-link commits, journal appends); the ``sampled``
  workload re-measures the 72 size-12 points, the grid's costliest,
  through the 10 Hz RAPL chain.  Every mode is asserted bit-identical
  to serial before a rate is reported.  On few-core boxes spawned
  workers cannot win either contest and the JSON records that honestly
  (``cpu_count`` is in the platform block — compare ``BENCH_sweep.json``,
  whose process pool tells the same single-CPU story).
* **Recovery latency** — one worker is crash-injected mid-shard
  (``FaultPlan``, deterministic) while a healthy twin works the same
  board.  Measured: wall time from the victim's death to its orphaned
  shard being *re-leased* by the survivor (TTL expiry + reap + claim),
  and to the shard's commit landing.
"""

import json
import os
import platform
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.dist import DistCoordinator, TaskBoard
from repro.experiments import ExperimentRunner, SweepEngine, full_grid
from repro.robust import FaultPlan

ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = ROOT / "BENCH_dist.json"


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _blob(results):
    return json.dumps([r.to_dict() for r in results], sort_keys=True)


def run_scaleout(name, configs, measure, worker_counts=(1, 2, 4)):
    n = len(configs)
    serial_rs, serial_s = _timed(
        lambda: SweepEngine(workers=1, cache_dir=None, measure=measure).run(configs)
    )
    reference = _blob(serial_rs)

    record = {
        "name": name,
        "points": n,
        "measure": measure,
        "serial": {
            "seconds": round(serial_s, 4),
            "points_per_sec": round(n / serial_s, 1),
        },
        "dist": [],
    }
    for workers in worker_counts:
        root = Path(tempfile.mkdtemp(prefix="bench-dist-"))
        try:
            engine = SweepEngine(
                workers=workers, cache_dir=None, measure=measure,
                transport="dist", dist_dir=root / "board",
                dist_ttl_s=2.0, dist_deadline_s=600.0,
            )
            rs, seconds = _timed(lambda: engine.run(configs))
        finally:
            shutil.rmtree(root, ignore_errors=True)
        assert _blob(rs) == reference, f"{name} x{workers} not bit-identical"
        record["dist"].append({
            "workers": workers,
            "seconds": round(seconds, 4),
            "points_per_sec": round(n / seconds, 1),
            "speedup_vs_serial": round(serial_s / seconds, 2),
            "shards": engine.dist_stats["shards"],
        })
    return record


def measure_recovery(ttl_s=0.5, points=16, repeats=3):
    """Crash a worker mid-shard; time the orphaned shard's re-lease."""
    import multiprocessing

    from repro.dist.worker import worker_main

    ctx = multiprocessing.get_context("spawn")
    samples = []
    for _ in range(repeats):
        root = Path(tempfile.mkdtemp(prefix="bench-dist-rec-")) / "board"
        configs = full_grid()[:points]
        coordinator = DistCoordinator(
            root, configs=configs, shard_size=2, ttl_s=ttl_s, poll_s=0.01,
        )
        board = coordinator.board
        plan = FaultPlan.single("crash", worker=0, step=3)
        victim = ctx.Process(
            target=worker_main,
            args=(str(root), 0, None, plan, ttl_s, 0.01, 60.0, None),
            daemon=True,
        )
        survivor = ctx.Process(
            target=worker_main,
            args=(str(root), 1, None, None, ttl_s, 0.01, 60.0, None),
            daemon=True,
        )
        victim.start()
        survivor.start()
        try:
            victim.join(timeout=60.0)
            t_death = time.perf_counter()
            orphans = [
                i for i in board.shard_ids()
                if (board.lease_info(i) or {}).get("owner") == "w0"
                and board.read_result(i) is None
            ]
            releases, commits = {}, {}
            deadline = time.perf_counter() + 60.0
            while len(commits) < len(orphans):
                assert time.perf_counter() < deadline, "no recovery"
                coordinator.step()
                now = time.perf_counter()
                for i in orphans:
                    info = board.lease_info(i)
                    if i not in releases and info and info.get("owner") == "w1":
                        releases[i] = now - t_death
                    if i not in commits and board.read_result(i) is not None:
                        commits[i] = now - t_death
                        releases.setdefault(i, now - t_death)
                time.sleep(0.005)
            coordinator.run(deadline_s=60.0)
        finally:
            for p in (victim, survivor):
                p.join(timeout=10.0)
                if p.is_alive():
                    p.terminate()
            shutil.rmtree(root.parent, ignore_errors=True)
        samples.append({
            "orphaned_shards": len(orphans),
            "release_s": round(min(releases.values()), 4) if releases else None,
            "commit_s": round(min(commits.values()), 4) if commits else None,
        })
    valid = [s["release_s"] for s in samples if s["release_s"] is not None]
    return {
        "ttl_s": ttl_s,
        "repeats": repeats,
        "samples": samples,
        "release_min_s": round(min(valid), 4) if valid else None,
        "release_mean_s": round(sum(valid) / len(valid), 4) if valid else None,
    }


def _size12_grid():
    # Size-12 points are the costliest through the sampling chain: long
    # modelled durations mean tens of thousands of 10 Hz reads per
    # domain, about 1.3 ms a point with closed-form counter reads.
    return [c for c in full_grid() if c.size_exp == 12]


def run_all(quick=False):
    workloads = [run_scaleout("grid216-model", full_grid(), "model",
                              worker_counts=(1, 2) if quick else (1, 2, 4))]
    if not quick:
        workloads.append(
            run_scaleout("grid72-sampled", _size12_grid(), "sampled")
        )
    return {
        "benchmark": "bench_dist",
        "units": "points/second; recovery in seconds",
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "workloads": workloads,
        "recovery": measure_recovery(repeats=1 if quick else 3),
    }


@pytest.mark.slow
def test_dist_scaleout_bit_identical_and_recovers():
    results = run_all(quick=True)
    model = results["workloads"][0]
    assert all(d["shards"] > 0 for d in model["dist"])
    rec = results["recovery"]
    assert rec["release_min_s"] is not None
    # Re-lease cannot be faster than the TTL, and should not take
    # orders of magnitude longer.
    assert rec["release_min_s"] < rec["ttl_s"] * 20 + 5.0


def main():
    results = run_all()
    OUT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")
    for w in results["workloads"]:
        line = f"{w['name']:>16s}: serial {w['serial']['points_per_sec']:>10,.1f} pts/s"
        for d in w["dist"]:
            line += f"  dist(x{d['workers']}) {d['points_per_sec']:>9,.1f} pts/s"
        print(line)
    rec = results["recovery"]
    print(
        f"{'recovery':>16s}: ttl {rec['ttl_s']}s — re-lease "
        f"min {rec['release_min_s']}s mean {rec['release_mean_s']}s"
    )


if __name__ == "__main__":
    main()
