"""The inertness guarantee, enforced differentially.

With no session installed every obs hook must be a no-op, and with a
session installed the *instrumented computation* must be unchanged:
study, mrc and sweep outputs bit-identical with tracing+metrics on vs
off, and the disabled hooks cheap enough (<2% on a worst-case
micro-benchmark) that instrumented hot paths stay fast.
"""

import time
from dataclasses import asdict

from repro import obs
from repro.experiments import run_cachegrind_study, run_mrc_study
from repro.experiments.configs import SampleConfig
from repro.experiments.sweep import SweepEngine
from repro.sim import available_backends


def study_payload(study):
    return {
        "n": study.n,
        "rows": list(study.rows),
        "reports": {s: asdict(r) for s, r in study.reports.items()},
    }


def curves_payload(curves):
    return [
        (c.scheme, c.n, c.assoc, sorted(c.mpi_capacity.items()),
         sorted(c.mpi_total.items()))
        for c in curves
    ]


SMALL_GRID = [
    SampleConfig(scheme, size, 2.6, threads)
    for scheme in ("rm", "mo")
    for size in (10, 11)
    for threads in ("1s", "8s")
]


class TestBitIdentity:
    def test_cachegrind_study(self, tmp_path):
        # n=64: a set-associative LL, so every backend's kernel runs.
        for backend in available_backends():
            kw = dict(n=64, n_rows=2, schemes=("mo", "ho"), backend=backend)
            baseline = run_cachegrind_study(**kw)
            with obs.ObsSession(
                trace=tmp_path / f"{backend}.jsonl",
                metrics=tmp_path / f"{backend}.json",
            ):
                traced = run_cachegrind_study(**kw)
            assert study_payload(baseline) == study_payload(traced), backend

    def test_mrc_study(self, tmp_path):
        for backend in available_backends():
            kw = dict(n=16, schemes=("rm", "mo"), u_values=(1.0, 4.0),
                      sample_rows=1, backend=backend)
            baseline = run_mrc_study(**kw)
            with obs.ObsSession(
                trace=tmp_path / f"{backend}.jsonl",
                metrics=tmp_path / f"{backend}.json",
            ):
                traced = run_mrc_study(**kw)
            assert curves_payload(baseline) == curves_payload(traced), backend

    def test_sweep(self, tmp_path):
        baseline = SweepEngine(workers=1, cache_dir=None).run(SMALL_GRID)
        with obs.ObsSession(
            trace=tmp_path / "t.jsonl", metrics=tmp_path / "m.json"
        ):
            traced = SweepEngine(workers=1, cache_dir=None).run(SMALL_GRID)
        assert [r.to_dict() for r in baseline] == [r.to_dict() for r in traced]

    def test_profiling_does_not_change_study_output(self, tmp_path):
        baseline = run_cachegrind_study(n=32, n_rows=2)
        with obs.ObsSession(trace=tmp_path / "t.jsonl", profile=True):
            profiled = run_cachegrind_study(n=32, n_rows=2)
        assert study_payload(baseline) == study_payload(profiled)


class TestDisabledOverhead:
    def test_disabled_hooks_under_two_percent(self):
        """Worst-case bound: hook cost vs the cheapest instrumented unit.

        The instrumentation fires a handful of hook calls per simulated
        *chunk* (never per access).  Compare the measured per-call cost
        of a disabled hook against the time to simulate one small chunk
        through the exact cache — the cheapest real unit of work a hook
        ever rides on — and require hooks to be <2% even if every chunk
        carried ten of them.
        """
        import numpy as np

        from repro.sim.cache import Cache
        from repro.sim.config import CacheSpec

        reps = 20_000
        t0 = time.perf_counter()
        for _ in range(reps):
            with obs.span("x", a=1):
                pass
            obs.count("c", 1, level="L1")
        hook_s = (time.perf_counter() - t0) / (2 * reps)

        cache = Cache(CacheSpec("L1", 32 * 1024, 64, 8))
        rng = np.random.default_rng(0)
        lines = rng.integers(0, 4096, size=4096, dtype=np.int64)
        writes = np.zeros(4096, dtype=bool)
        cache.access_lines(lines, writes)  # warm
        t0 = time.perf_counter()
        chunks = 20
        for _ in range(chunks):
            cache.access_lines(lines, writes)
        chunk_s = (time.perf_counter() - t0) / chunks

        assert 10 * hook_s < 0.02 * chunk_s, (
            f"disabled hook {hook_s * 1e9:.0f} ns vs chunk "
            f"{chunk_s * 1e6:.0f} us"
        )
