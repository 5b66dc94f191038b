"""The ledger's four workloads; ``run.py`` runs each in a fresh process.

One process runs one workload in one role:

* ``probe`` — set up (and, for ``paper-report``, run the cold operation),
  then exit.  Probes give ``setup_s`` (and that cold time) more samples
  than one process per run could.
* ``main`` — set up, run the cold phase, run the warm phase for the
  timed window, then check the outputs outside the timed section.

The process writes one JSON result to ``--out``; ``run.py`` reduces the
results of all processes of a run to the printed metrics.  Module level
imports only the standard library, because spawned pool workers import
this file again as ``__mp_main__``.

Set-up time runs from ``--launch`` (the harness's ``time.monotonic()``
just before it started this process; the clock is system-wide) to the
moment the workload is ready to time: imports, backend resolution, model
construction and, for ``advise-open``, the server boot plus one warm-up
request per traffic class.

Every time is recorded twice: as measured, and scaled to the reference
CPU speed by the probes taken around it (see ``speed_probe``).  The
gated metrics are the scaled ones.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import inspect
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

#: Matrix side of the paper-scale trace study (paper size 12).
TRACE_N = 4096

#: The CPU-speed probe.  A shared host's vCPUs slow down and speed up as
#: other tenants load the machine (one vCPU for seconds at a time, both
#: for minutes), so every timed operation is bracketed by probes: a fixed
#: pure-Python loop of ``SPEED_LOOP`` iterations, timed in thread CPU time
#: on each CPU this process may use.  CPU time leaves out time spent
#: waiting for a CPU or the GIL, so a probe reads how fast the vCPUs run,
#: not how busy the workload keeps them, and a workload that competes with
#: itself is not excused.  Each CPU's reading is the fastest of
#: ``PROBE_REPS`` loops, since an interrupt can only slow one down.  An
#: operation's scaled time is its wall time times (``SPEED_REF_S`` over
#: the mean of the probe readings before and after it) to the power
#: ``SPEED_EXPONENT``: seconds at the speed of the baseline host in a
#: quiet period, where a probe reads ``SPEED_REF_S``.  The exponent is
#: above 1 because the workloads, which run far more code over far more
#: data than the loop, lose more to a busy neighbour than the loop does
#: (README, "Host speed and the bounds").  A reading is the median of a
#: burst of probes, one more per second the operation took (up to
#: ``PROBE_BURST``), because the speed also flickers within a second and
#: a long operation runs through many flickers.
SPEED_LOOP = 150_000
PROBE_REPS = 3
PROBE_BURST = 8
SPEED_REF_S = 0.0082
SPEED_EXPONENT = 1.25
#: A reading younger than this also serves as the next operation's first.
PROBE_REUSE_S = 0.05


def speed_probe() -> float:
    """Thread CPU seconds of the fixed loop, averaged over the CPUs this
    thread may use, with the thread pinned to each in turn."""
    cpus = os.sched_getaffinity(0)
    best = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times = []
            for _ in range(PROBE_REPS):
                t0 = time.thread_time()
                total = 0
                for i in range(SPEED_LOOP):
                    total += i * i
                times.append(time.thread_time() - t0)
            best.append(min(times))
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(best) / len(best)


def scale(wall_s: float, reading: float) -> float:
    """``wall_s``, measured while the probe read ``reading``, at the
    reference speed."""
    return wall_s * (SPEED_REF_S / reading) ** SPEED_EXPONENT


def accepted(fn, **kwargs) -> dict:
    """The subset of ``kwargs`` that ``fn`` still accepts.

    Arguments that an open ROADMAP item deletes (``engine``, pool
    ``workers``, ``trace_cache``) are passed only while the entry point
    takes them, so those deletions need no benchmark edit.
    """
    params = inspect.signature(fn).parameters
    if any(p.kind is p.VAR_KEYWORD for p in params.values()):
        return kwargs
    return {k: v for k, v in kwargs.items() if k in params}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Workload:
    """Shared flow: set-up, cold phase, timed warm window, checks."""

    name = ""
    #: Whether a probe process also runs the cold operation.
    probe_cold = False
    #: Set-up probes per run, besides the main process; half run before
    #: it and half after, so their samples span the run.
    probes = 4
    #: Seconds the warm phase runs per second of the timed window.
    WINDOW_FACTOR = 1

    def __init__(self, args):
        self.args = args
        self.work = Path(args.work)
        self.seconds = args.seconds
        self.smoke = args.smoke
        # Per phase: scaled and unscaled operation times ("setup" is one
        # number, "cold" and "warm" are lists).
        self.scaled: dict = {"cold": [], "warm": []}
        self.unscaled: dict = {"cold": [], "warm": []}
        self.speeds: list[float] = []
        self._last_probe: tuple[float, float] | None = None
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []
        self.diag: dict = {}
        self.env: dict = {}
        self.rss_mb = 0.0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def probe(self, burst: int = 1) -> float:
        """Take ``burst`` CPU-speed probes now; returns their median."""
        values = [speed_probe() for _ in range(burst)]
        self.speeds.extend(values)
        value = statistics.median(values)
        self._last_probe = (time.perf_counter(), value)
        return value

    def record(self, phase: str, wall_s: float, before: float, after: float) -> None:
        """Record one operation of ``phase`` that took ``wall_s`` between
        probes reading ``before`` and ``after``."""
        self.unscaled[phase].append(wall_s)
        self.scaled[phase].append(scale(wall_s, (before + after) / 2))

    def record_setup(self, wall_s: float) -> None:
        """Record the set-up time, scaled by a reading taken right after it."""
        self.unscaled["setup"] = wall_s
        self.scaled["setup"] = scale(wall_s, self.probe(3))

    def timed(self, phase: str, fn):
        """Run ``fn`` once as one timed operation; returns its result."""
        self.attempted += 1
        last = self._last_probe
        if last and time.perf_counter() - last[0] < PROBE_REUSE_S:
            before = last[1]
        else:
            before = self.probe()
        with tracing.span(f"bench.{self.name}.{phase}"):
            t0 = time.perf_counter()
            out = fn()
            dt = time.perf_counter() - t0
        self.record(phase, dt, before, self.probe(min(PROBE_BURST, 1 + int(dt))))
        return out

    def window(self, fn, min_ops: int = 3) -> None:
        """Repeat warm operations until the timed window has passed."""
        end = time.perf_counter() + self.seconds * self.WINDOW_FACTOR
        done = 0
        while done < min_ops or time.perf_counter() < end:
            fn()
            done += 1

    def setup(self) -> None:
        from repro.sim.backends import resolve_backend

        import numpy

        self.env = {
            "backend": resolve_backend("auto"),
            "numpy": numpy.__version__,
            "python": sys.version.split()[0],
            "cpu_count": os.cpu_count(),
        }

    def run_cold(self) -> None:
        raise NotImplementedError

    def run_warm(self) -> None:
        raise NotImplementedError

    def measure(self) -> None:
        """The main role's timed section."""
        self.run_cold()
        self.run_warm()

    def verify(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def result(self) -> dict:
        return {
            "workload": self.name,
            "pid": os.getpid(),
            "scaled": self.scaled,
            "unscaled": self.unscaled,
            "speed_probes": self.speeds,
            "attempted": self.attempted,
            "failed": self.failed,
            "checks": self.checks,
            "peak_rss_mb": self.rss_mb,
            "env": self.env,
            "diag": self.diag,
        }


class PaperReport(Workload):
    """``generate_report()``, the body of ``sfc-repro report``."""

    name = "paper-report"
    probe_cold = True
    # Its cold samples come from the probes, and a probe costs 0.6 s.
    probes = 8

    def setup(self) -> None:
        super().setup()
        from repro.experiments import generate_report
        from repro.experiments.validation import validate_all

        self.generate_report = generate_report
        self.validate_all = validate_all
        self.digests: list[str] = []

    def _report(self) -> None:
        text = self.generate_report(fast=self.smoke)
        self.digests.append(digest(text))
        if "[FAIL]" in text:
            self.failed += 1

    def run_cold(self) -> None:
        self.timed("cold", self._report)

    def run_warm(self) -> None:
        self.window(lambda: self.timed("warm", self._report))

    def verify(self) -> None:
        self.check("reports byte-identical", len(set(self.digests)) == 1,
                   f"{len(set(self.digests))} distinct of {len(self.digests)}")
        failing = [c.name for c in self.validate_all() if not c.holds]
        self.check("validate_all PASS", not failing, ", ".join(failing))


class SweepSampled(Workload):
    """The Table III grid through ``SweepEngine(measure="sampled")``."""

    name = "sweep-sampled"
    #: Points of the grid compared against an in-process evaluation.
    SUBSET = 8
    # Warm passes take 7 ms: half the window gives a steady median of
    # about 50, and its two cold passes already make its runs the longest.
    WINDOW_FACTOR = 0.5

    def setup(self) -> None:
        super().setup()
        from repro.experiments.configs import full_grid
        from repro.experiments.runner import ExperimentRunner
        from repro.experiments.sweep import SweepEngine, evaluate_batch
        from repro.sim.analytic import PerformanceModel

        self.SweepEngine = SweepEngine
        self.evaluate_batch = evaluate_batch
        self.ExperimentRunner = ExperimentRunner
        self.model = PerformanceModel()
        grid = full_grid()
        # Smoke mode drops the size-12 points, which dominate the cost.
        self.grid = [c for c in grid if c.size_exp < 12] if self.smoke else grid
        self.results: list[str] = []
        self.stats = []

    def _pass(self, cache_dir: Path):
        engine = self.SweepEngine(
            model=self.model, cache_dir=cache_dir, measure="sampled"
        )
        out = engine.run(self.grid)
        self.stats.append(engine.stats)
        return out

    def _record(self, results) -> None:
        self.results.append(digest(json.dumps(
            [r.to_dict() for r in results], sort_keys=True)))
        self.last = results

    def run_cold(self) -> None:
        self.cache_dir = self.work / f"sweep-cache-{len(self.scaled['cold'])}"
        self._record(self.timed("cold", lambda: self._pass(self.cache_dir)))

    def run_warm(self) -> None:
        self.window(lambda: self._record(
            self.timed("warm", lambda: self._pass(self.cache_dir))), min_ops=20)

    def measure(self) -> None:
        # A second cold pass after the window spreads the two cold
        # samples over the run.
        super().measure()
        self.run_cold()

    def verify(self) -> None:
        self.check("cold and warm results equal", len(set(self.results)) == 1,
                   f"{len(set(self.results))} distinct of {len(self.results)}")
        step = max(1, len(self.grid) // self.SUBSET)
        subset = self.grid[::step][: self.SUBSET]
        fresh = self.evaluate_batch(subset, self.ExperimentRunner(self.model),
                                    measure="sampled")
        swept = {r.config.key: r for r in self.last}
        bad = [c.key for c, r in zip(subset, fresh)
               if r is None or r.to_dict() != swept[c.key].to_dict()]
        self.check(f"{len(subset)}-point subset equals evaluate_batch",
                   not bad, ", ".join(bad))
        points = sum(s.points for s in self.stats)
        self.diag.update(
            hit_rate=sum(s.cache_hits for s in self.stats) / points,
            retries=sum(s.retries for s in self.stats),
            degraded=sum(s.degraded for s in self.stats),
            workers=self.stats[0].workers,
        )
        self.check("no retried or degraded shards",
                   not (self.diag["retries"] or self.diag["degraded"]))


def _result_key(r) -> str:
    def stats(cs):
        return [cs.accesses, cs.write_accesses, cs.hits, cs.misses,
                cs.read_misses, cs.write_misses, cs.evictions, cs.writebacks,
                cs.prefetches, cs.tag_accesses.tolist(),
                cs.tag_read_misses.tolist(), cs.tag_write_misses.tolist()]

    return digest(json.dumps([stats(r.l1), stats(r.l2), stats(r.l3),
                              r.dram_lines, r.dram_writeback_lines,
                              r.line_bytes]))


class TracePaper(Workload):
    """The paper-scale trace study (PAPER.md Section IV-A) on 2 workers."""

    name = "trace-paper"

    def setup(self) -> None:
        super().setup()
        from repro.sim import SANDY_BRIDGE_E5_2670, MulticoreTraceSim
        from repro.trace import MatmulTraceSpec

        self.Sim = MulticoreTraceSim
        self.machine = SANDY_BRIDGE_E5_2670
        self.n = 512 if self.smoke else TRACE_N
        self.spec = MatmulTraceSpec.uniform(self.n, "holut")
        self.keys: list[str] = []

    def _sim(self, spec, parallel: bool, cache: Path | None):
        extra = {"workers": 2, "trace_cache": str(cache)} if parallel else {}
        return self.Sim(self.machine, spec, 8, 1, **accepted(
            self.Sim, engine="fast", backend="auto", **extra))

    def _pass(self, phase: str) -> None:
        n = self.n
        sim = self._sim(self.spec, True, self.cache)
        result = self.timed(phase, lambda: sim.run(rows=[n // 2, n // 2 + 1]))
        self.keys.append(_result_key(result))
        self.accesses = result.l1.accesses

    def run_cold(self) -> None:
        self.cache = self.work / "trace-cache"
        self._pass("cold")

    def run_warm(self) -> None:
        self.window(lambda: self._pass("warm"))

    def verify(self) -> None:
        self.check("cold and warm stats identical", len(set(self.keys)) == 1,
                   f"{len(set(self.keys))} distinct of {len(self.keys)}")
        from repro.trace import MatmulTraceSpec

        spec = MatmulTraceSpec.uniform(256, "holut")
        par = self._sim(spec, True, self.work / "trace-cache-256").run(rows=[128, 129])
        ser = self._sim(spec, False, None).run(rows=[128, 129])
        self.check("n=256 parallel equals serial",
                   _result_key(par) == _result_key(ser))
        self.diag["accesses"] = self.accesses


# -- advise-open --------------------------------------------------------------

#: Requests per second of the open-loop client.
ADVISE_RATE = 40.0
#: Traffic mix, in tenths: hot repeated, unique model, unique sampled.
ADVISE_MIX = (("hot", 7), ("model", 2), ("sampled", 1))
#: A response slower than this, counted from its due time, misses the SLO.
ADVISE_SLO_S = 0.050

#: The hot set: eight fixed ``model`` documents the client repeats.
HOT_DOCS = [
    {"size_exp": size, "placement": placement, "objective": objective}
    for size, placement, objective in (
        (10, "8s", "energy"), (11, "8s", "energy"), (12, "8s", "energy"),
        (12, "16d", "time"), (11, "4s", "edp"), (12, "1s", "energy"),
        (10, "2d", "time"), (11, "8d", "edp"),
    )
]


def _unique_freq(rng: random.Random, used: set, lo_mhz: int, hi_mhz: int) -> float:
    """A frequency in GHz, in whole MHz from ``lo_mhz`` to ``hi_mhz``, that
    is not in ``used``.  The service keys sample points by whole MHz, so a
    frequency unique at that resolution misses every store."""
    free = [f for f in range(lo_mhz, hi_mhz + 1) if f not in used]
    if not free:
        raise ValueError(f"no unused frequency left in {lo_mhz}-{hi_mhz} MHz; "
                         "use a shorter window")
    f = rng.choice(free)
    used.add(f)
    return f / 1000


def advise_schedule(seed: int, count: int,
                    used: dict | None = None) -> list[tuple[str, dict]]:
    """The seeded request stream: a fixed class mix in seeded order.

    Unique documents ask for frequencies no other document of their
    class asks for (nor any in ``used[class]``, which is updated), so
    every one of them misses the service's stores.  Sampled documents
    stay at one size and placement and a narrow frequency band, which
    keeps their evaluation cost (and so their median latency) steady.
    """
    rng = random.Random(seed)
    per = sum(k for _, k in ADVISE_MIX)
    classes = [c for c, k in ADVISE_MIX for _ in range(k)]
    kinds = [classes[i % per] for i in range(count)]
    rng.shuffle(kinds)
    used = {"model": set(), "sampled": set()} if used is None else used
    out = []
    for i, kind in enumerate(kinds):
        if kind == "hot":
            doc = dict(HOT_DOCS[rng.randrange(len(HOT_DOCS))])
        elif kind == "model":
            doc = {
                "schemes": rng.sample(["rm", "mo", "ho"], rng.choice((2, 3))),
                "size_exp": rng.choice((10, 11, 12)),
                "placement": rng.choice(("1s", "4s", "8s", "2d", "8d", "16d")),
                "frequencies": [_unique_freq(rng, used[kind], 1200, 2600)],
                "objective": rng.choice(("energy", "time", "edp")),
            }
        else:
            doc = {
                "schemes": ["rm", "mo", "ho"],
                "size_exp": 11,
                "placement": "16d",
                "frequencies": [_unique_freq(rng, used[kind], 2000, 2200)],
                "measure": "sampled",
                "refine": "sweep",
            }
        out.append((kind, doc))
    return out


class AdviseClient:
    """Keep-alive HTTP client for one connection."""

    def __init__(self, port: int):
        self.port = port
        self.conn = None

    def request(self, method: str, path: str, doc=None) -> tuple[int, dict]:
        """One request; a failed one drops the connection for the next."""
        body = None if doc is None else json.dumps(doc).encode("utf-8")
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=30)
        try:
            self.conn.request(method, path, body=body,
                              headers={"Content-Type": "application/json"})
            resp = self.conn.getresponse()
            return resp.status, json.loads(resp.read())
        except (OSError, http.client.HTTPException, ValueError):
            self.close()
            raise

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def advise_ok(status: int, body: dict, doc: dict) -> str | None:
    """Why a response fails the output check, or ``None`` if it passes."""
    if status != 200:
        return f"status {status}"
    if body.get("degraded"):
        return f"degraded: {body.get('degraded_reason')}"
    try:
        scheme = body["advice"]["recommendation"]["scheme"]
    except (KeyError, TypeError):
        return "malformed body"
    if scheme not in doc.get("schemes", ["rm", "mo", "ho"]):
        return f"recommended {scheme!r} outside the requested set"
    return None


class AdviseOpen(Workload):
    """``sfc-repro serve`` under an open-loop mixed request stream."""

    name = "advise-open"
    WINDOW_FACTOR = 2
    #: Parts of the open loop, with a CPU-speed probe between two parts.
    SEGMENTS = 8

    def setup(self) -> None:
        super().setup()
        state = self.work / "serve-state"
        cmd = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
               "--no-cache", "--state-dir", str(state)]
        if self.args.serve_workers:
            cmd += ["--workers", "1"]
        self.stderr = open(self.work / "serve.err", "w")
        self.server = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self.stderr, text=True)
        line = self.server.stdout.readline()
        if "listening on http://" not in line:
            raise RuntimeError(f"advisor did not start: {line!r}")
        self.port = int(line.split("listening on http://", 1)[1].split()[0]
                        .rsplit(":", 1)[1])
        client = AdviseClient(self.port)
        # The timed stream avoids the warm-up's frequencies, so none of
        # its unique documents hits a point the warm-up stored.
        self.used: dict = {"model": set(), "sampled": set()}
        warmup = advise_schedule(self.args.seed + 1_000_003, 10, self.used)
        for kind in ("hot", "model", "sampled"):
            doc = next(d for k, d in warmup if k == kind)
            status, body = client.request("POST", "/v1/advise", doc)
            why = advise_ok(status, body, doc)
            if why:
                raise RuntimeError(f"warm-up {kind} request failed: {why}")
        client.close()

    def _open_loop(self, schedule, lo: int, hi: int, lat, late, errors) -> None:
        """Send requests ``lo`` to ``hi - 1`` of ``schedule`` at their due
        times on one keep-alive connection; fills ``lat``, ``late`` and
        ``errors`` at the same indices.

        A request due while the one before it is still in flight goes out
        late, and its latency still counts from its due time.  One
        connection rather than two: with two, requests overlapping in
        the server raised the sampled latencies and their spread from
        run to run (README, "Workloads").
        """
        client = AdviseClient(self.port)
        start = time.monotonic() + 0.05
        try:
            for i in range(lo, hi):
                due = start + (i - lo) / ADVISE_RATE
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                late[i] = time.monotonic() - due
                doc = schedule[i][1]
                try:
                    status, body = client.request("POST", "/v1/advise", doc)
                    errors[i] = advise_ok(status, body, doc)
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    errors[i] = f"{type(exc).__name__}: {exc}"
                lat[i] = time.monotonic() - due
        finally:
            client.close()

    def measure(self) -> None:
        """One open loop gives both phases: unique sampled requests are
        the cold operations (store misses evaluated through the pool),
        hot repeated ones the warm operations.

        The loop runs in ``SEGMENTS`` parts with a CPU-speed probe between
        them, taken while the server is idle; a request's latency is
        scaled by the probes on either side of its part.
        """
        seconds = self.seconds * self.WINDOW_FACTOR
        schedule = advise_schedule(self.args.seed, int(ADVISE_RATE * seconds),
                                   self.used)
        n = len(schedule)
        lat = [0.0] * n
        late = [0.0] * n
        errors: list[str | None] = [None] * n
        phase_of = {"sampled": "cold", "hot": "warm"}
        self.windows = []
        before = self.probe(3)
        bounds = [n * k // self.SEGMENTS for k in range(self.SEGMENTS + 1)]
        for lo, hi in zip(bounds, bounds[1:]):
            t_epoch = time.time()
            self._open_loop(schedule, lo, hi, lat, late, errors)
            self.windows.append((t_epoch, time.time()))
            after = self.probe(3)
            for i in range(lo, hi):
                phase = phase_of.get(schedule[i][0])
                if phase:
                    self.record(phase, lat[i], before, after)
            before = after
        self.attempted += n
        self.failed += sum(1 for e in errors if e)
        by_kind: dict[str, list[float]] = {}
        for (kind, _), value in zip(schedule, lat):
            by_kind.setdefault(kind, []).append(value)
        ok_in_slo = sum(1 for e, v in zip(errors, lat)
                        if e is None and v <= ADVISE_SLO_S)
        ordered = sorted(lat)
        self.diag.update(
            requests=n,
            p50_ms=statistics.median(lat) * 1e3,
            p99_ms=ordered[min(n - 1, int(0.99 * n))] * 1e3,
            model_p50_ms=statistics.median(by_kind.get("model", [0])) * 1e3,
            slo_share=ok_in_slo / n,
            late_max_ms=max(late) * 1e3,
            errors=sorted({e for e in errors if e})[:5],
        )
        self.timed_s = sum(lat)

    def verify(self) -> None:
        self.check("every response 200, not degraded, scheme in the set",
                   self.failed == 0, "; ".join(self.diag.get("errors", [])))
        client = AdviseClient(self.port)
        status, snap = client.request("GET", "/metrics")
        client.close()
        counters = snap.get("counters", {}) if status == 200 else {}

        def total(name):
            return sum(v for k, v in counters.items()
                       if k == name or k.startswith(name + "{"))

        self.diag["counters"] = {
            name: total(f"serve.{name}") for name in
            ("admitted", "evaluations", "coalesced", "memo_hits",
             "rejected", "degraded")
        }

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is None:
            return
        try:
            with open(f"/proc/{server.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        self.rss_mb = int(line.split()[1]) / 1024.0
        except OSError:
            pass
        server.send_signal(signal.SIGINT)
        try:
            out, _ = server.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            out, _ = server.communicate()
        self.stderr.close()
        self.check("advisor stopped cleanly",
                   server.returncode == 0 and "advisor stopped" in out,
                   f"exit {server.returncode}")

    def result(self) -> dict:
        out = super().result()
        if hasattr(self, "timed_s"):
            out["serving_pid"] = self.server.pid
            out["windows"] = self.windows
            out["timed_s"] = self.timed_s
        return out


WORKLOADS = {w.name: w for w in (PaperReport, SweepSampled, TracePaper, AdviseOpen)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--role", choices=("probe", "main"), default="main")
    ap.add_argument("--seed", type=int, default=1107)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--launch", type=float, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--serve-workers", action="store_true")
    args = ap.parse_args(argv)

    # Caches and server state are private to this process: every main
    # process starts its cold phase from empty stores.
    args.work = str(Path(args.work) / str(os.getpid()))
    Path(args.work).mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args)
    out: dict = {"workload": args.workload, "role": args.role}
    try:
        wl.setup()
        wl.record_setup(time.monotonic() - args.launch)
        if args.role == "main":
            wl.measure()
            wl.rss_mb = peak_rss_mb()
            wl.verify()
        elif wl.probe_cold:
            wl.run_cold()
    except Exception as exc:  # noqa: BLE001 - reported to the harness
        out["error"] = f"{type(exc).__name__}: {exc}"
        out["traceback"] = traceback.format_exc()
    finally:
        try:
            wl.close()
        except Exception as exc:  # noqa: BLE001 - reported to the harness
            out.setdefault("error", f"close: {type(exc).__name__}: {exc}")
    out.update(wl.result())
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
