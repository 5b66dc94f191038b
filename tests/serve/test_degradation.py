"""Graceful degradation: worker faults degrade one request, not the service.

Fault injection reuses the deterministic :class:`FaultPlan` machinery:
crash/hang/transient/corrupt faults address a specific worker id and
step, so "the first batch on worker 0 dies" is a scheduled event.  After
every fault the service must (a) answer the affected request with a
marked analytic fallback, (b) keep serving subsequent requests cleanly
on a respawned worker, and (c) leak nothing at shutdown (asserted by the
``serve_factory`` teardown for every test in this tree).
"""

import pytest

from repro.experiments.configs import SampleConfig
from repro.robust import FaultPlan
from repro.serve.workers import EvalWorkerPool
from repro.sim.analytic import PerformanceModel

REQ = {
    "schemes": ["ho", "mo"],
    "frequencies": [1.8, 2.6],
    "size_exp": 10,
    "refine": "sweep",
}


class TestWorkerFaults:
    def test_crash_degrades_request_and_service_keeps_serving(
        self, serve_factory
    ):
        service, client = serve_factory(
            workers=1,
            fault_plan=FaultPlan.single("crash", worker=0, step=1),
            hang_timeout_s=10.0,
        )
        status, _, body = client.advise(dict(REQ))
        assert status == 200
        assert body["degraded"] is True
        assert body["degraded_reason"] == "worker_crash"
        assert sorted(body["advice"]["curves"]) == ["ho", "mo"]
        # The replacement worker carries a fresh id the plan does not
        # address: the next request refines cleanly.
        status, _, body = client.advise({**REQ, "size_exp": 9})
        assert status == 200
        assert body["degraded"] is False
        _, _, health = client.healthz()
        assert health["workers"] == {
            "configured": 1,
            "alive": 1,
            "respawns": 1,
        }

    def test_hang_is_detected_and_degrades(self, serve_factory):
        service, client = serve_factory(
            workers=1,
            fault_plan=FaultPlan.single("hang", worker=0, step=0),
            hang_timeout_s=0.5,
        )
        status, _, body = client.advise(dict(REQ))
        assert status == 200
        assert body["degraded"] is True
        assert body["degraded_reason"] == "worker_hang"
        assert service.state.metrics.counter_value(
            "serve.degraded", reason="worker_hang"
        ) == 1
        status, _, body = client.advise({**REQ, "size_exp": 9})
        assert status == 200
        assert body["degraded"] is False

    def test_transient_fault_degrades_without_killing_worker(
        self, serve_factory
    ):
        service, client = serve_factory(
            workers=1,
            fault_plan=FaultPlan.single("transient", worker=0, step=1),
            hang_timeout_s=10.0,
        )
        status, _, body = client.advise(dict(REQ))
        assert status == 200
        assert body["degraded"] is True
        assert body["degraded_reason"] == "worker_crash"
        # A raised exception proves the worker loop is intact: no respawn.
        _, _, health = client.healthz()
        assert health["workers"]["respawns"] == 0
        assert health["workers"]["alive"] == 1

    def test_corrupt_payload_is_rejected_and_degrades(self, serve_factory):
        service, client = serve_factory(
            workers=1,
            fault_plan=FaultPlan.single("corrupt", worker=0, step=2),
            hang_timeout_s=10.0,
        )
        status, _, body = client.advise(dict(REQ))
        assert status == 200
        assert body["degraded"] is True
        assert body["degraded_reason"] == "worker_crash"


class TestRefineModes:
    def test_sweep_without_workers_degrades_with_no_workers_reason(
        self, serve_factory
    ):
        _, client = serve_factory(workers=0)
        status, _, body = client.advise(dict(REQ))
        assert status == 200
        assert body["degraded"] is True
        assert body["degraded_reason"] == "no_workers"

    def test_auto_without_workers_is_not_degraded(self, serve_factory):
        _, client = serve_factory(workers=0)
        status, _, body = client.advise({**REQ, "refine": "auto"})
        assert status == 200
        assert body["degraded"] is False

    def test_analytic_never_touches_the_pool(self, serve_factory):
        # A crash-on-first-step plan would kill any pooled evaluation;
        # refine=analytic must not trigger it.
        _, client = serve_factory(
            workers=1,
            fault_plan=FaultPlan.single("crash", worker=0, step=0),
            hang_timeout_s=10.0,
        )
        status, _, body = client.advise({**REQ, "refine": "analytic"})
        assert status == 200
        assert body["degraded"] is False
        _, _, health = client.healthz()
        assert health["workers"]["respawns"] == 0

    def test_analytic_refine_of_sampled_measure_is_marked_degraded(
        self, serve_factory
    ):
        # Analytic numbers answering a sampled-measure request are model
        # stand-ins whatever path produced them: the response must say
        # so, and the sampled tier must not be poisoned (a later sampled
        # request re-evaluates instead of reading mislabeled model data).
        service, client = serve_factory(workers=0)
        doc = {**REQ, "measure": "sampled", "refine": "analytic"}
        status, _, body = client.advise(dict(doc))
        assert status == 200
        assert body["degraded"] is True
        assert body["degraded_reason"] == "analytic_fallback"
        evals = service.state.metrics.counter_value("serve.evaluations")
        _, _, again = client.advise(dict(doc))
        assert again["degraded"] is True
        assert (
            service.state.metrics.counter_value("serve.evaluations")
            == evals + 1
        )

    def test_auto_refine_of_sampled_measure_without_pool_is_degraded(
        self, serve_factory
    ):
        # The default workers=0 config resolves refine="auto" to the
        # analytic path; for a sampled measure that is a stand-in too.
        _, client = serve_factory(workers=0)
        status, _, body = client.advise(
            {**REQ, "measure": "sampled", "refine": "auto"}
        )
        assert status == 200
        assert body["degraded"] is True
        assert body["degraded_reason"] == "analytic_fallback"

    def test_analytic_refine_of_model_measure_is_not_degraded(
        self, serve_factory
    ):
        # For measure="model" the analytic model IS the answer.
        _, client = serve_factory(workers=0)
        status, _, body = client.advise({**REQ, "refine": "analytic"})
        assert status == 200
        assert body["degraded"] is False
        assert body["degraded_reason"] is None

    def test_degraded_sampled_results_are_not_stored_as_sampled(
        self, serve_factory
    ):
        # A degraded "sampled" answer is analytic stand-in data; a later
        # sampled request must re-evaluate, not read poisoned warm state.
        service, client = serve_factory(workers=0)
        _, _, first = client.advise({**REQ, "measure": "sampled"})
        assert first["degraded_reason"] == "no_workers"
        evals_before = service.state.metrics.counter_value("serve.evaluations")
        _, _, second = client.advise({**REQ, "measure": "sampled"})
        assert (
            service.state.metrics.counter_value("serve.evaluations")
            == evals_before + 1
        )


class TestWarmStateRestart:
    def test_restarted_service_reboots_warm_from_journal(
        self, serve_factory, tmp_path
    ):
        state_dir = tmp_path / "state"
        first, client = serve_factory(workers=0, state_dir=state_dir)
        client.advise({**REQ, "refine": "auto"})
        assert (state_dir / "serve_warm.jsonl").exists()

        second, client2 = serve_factory(workers=0, state_dir=state_dir)
        assert second.state.warm_restored == 4
        status, _, body = client2.advise({**REQ, "refine": "auto"})
        assert status == 200
        # Every point came back from the journal: zero evaluations.
        assert second.state.metrics.counter_value("serve.evaluations") == 0
        assert second.state.metrics.counter_value("serve.memo_hits") == 1

    def test_torn_journal_tail_is_tolerated(self, serve_factory, tmp_path):
        state_dir = tmp_path / "state"
        first, client = serve_factory(workers=0, state_dir=state_dir)
        client.advise({**REQ, "refine": "auto"})
        journal = state_dir / "serve_warm.jsonl"
        # Tear the last record mid-line, as a crashed writer would.
        torn = journal.read_bytes()[:-20]
        journal.write_bytes(torn)

        second, client2 = serve_factory(workers=0, state_dir=state_dir)
        assert second.state.warm_restored == 3
        assert second.state.warm_dropped == 1
        status, _, body = client2.advise({**REQ, "refine": "auto"})
        assert status == 200
        assert body["degraded"] is False

    def test_recalibrated_model_discards_stale_journal(
        self, serve_factory, tmp_path
    ):
        from repro.sim.analytic import PerformanceModel

        state_dir = tmp_path / "state"
        first, client = serve_factory(workers=0, state_dir=state_dir)
        client.advise({**REQ, "refine": "auto"})
        assert first.state.warm_size == 4

        recalibrated = PerformanceModel(overlap_residual=0.3)
        second, _ = serve_factory(
            workers=0, model=recalibrated, state_dir=state_dir
        )
        assert second.state.fingerprint != first.state.fingerprint
        assert second.state.warm_restored == 0


class TestWorkerBoot:
    def test_booting_worker_is_not_hung(self):
        # A fresh worker is silent until it has booted; the spawn boot
        # must not count against hang_timeout_s, whose budget starts at
        # the worker's ready message.
        cfg = SampleConfig("ho", 10, 2.6, "8s")
        with EvalWorkerPool(
            PerformanceModel(), workers=1, hang_timeout_s=0.05
        ) as pool:
            results = pool.evaluate([cfg])
            assert list(results) == [cfg.key]
            assert pool.respawns == 0
        assert pool.child_pids() == []
