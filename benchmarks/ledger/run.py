"""The repo's one benchmark: four workloads, gated end-to-end metrics and
a traced per-layer ledger.

Run from the repository root::

    python3 benchmarks/ledger/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--trace-dir DIR] [--smoke] [--out FILE]

Each workload runs in fresh processes (``workloads.py``): set-up probes
before and after one main process that times the workload and checks
its outputs.  Every process starts in its own session under a hard timeout;
a process that outlives its timeout, or leaves a survivor in its process
group, is killed and counted as a failure.  The end-to-end metrics
declared in ``BENCHMARK.json`` are printed one per line with their unit,
and the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The time metrics
are scaled to a reference CPU speed by probes taken around every timed
operation (``workloads.speed_probe``); a ``#`` line prints them unscaled.

``--trace 1`` runs the workload twice more — once untraced and once with
the layer wrappers of ``tracing.py`` installed in every process — and
reports the per-layer metrics instead.  The merged trace is written in
the ``repro.obs`` journal format to ``DIR/<workload>.jsonl`` (default
``.bench_ledger/trace``), which ``sfc-repro trace-report`` renders.

All scratch files (sweep and trace caches, server state, the compiled C
kernel) live under ``.bench_ledger/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCRATCH = ROOT / ".bench_ledger"

sys.path[:0] = [str(HERE), str(ROOT / "src")]
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Budget of one workload's processes; a single-workload invocation
#: must exit well inside 180 s.
BUDGET_S = 160.0
#: How long a process group may take to empty after its leader exits.
LEAK_GRACE_S = 5.0

#: The metric each workload's tracing overhead is measured on: the
#: operation most of its traced layers sit under.
OVERHEAD_METRIC = {
    "paper-report": "warm_s",
    "sweep-sampled": "cold_s",
    "trace-paper": "cold_s",
    "advise-open": "cold_s",
}

#: Per-layer time metrics: metric suffix -> span name.  Each is reported
#: as the layer's self time summed over processes, divided by the timed
#: wall time (a busy share; parallel layers can exceed 1).
LAYER_SHARES = {
    "curves.encode.self_share": "curves.encode",
    "trace.generate.self_share": "trace.generate",
    "trace.ir.encode.self_share": "trace.ir.encode",
    "trace.ir.write.self_share": "trace.ir.write",
    "trace.ir.publish.self_share": "trace.ir.publish",
    "trace.ir.decode.self_share": "trace.ir.decode",
    "sim.replay.self_share": "sim.replay",
    "sim.parallel.wait_share": "sim.parallel.wait",
    "sim.parallel.ipc_share": "sim.parallel.ipc",
    "sim.analytic.self_share": "sim.analytic",
    "perf.sampling.self_share": "perf.sampling",
    "experiments.sweep.wait_share": "experiments.sweep.run",
    "experiments.sweep.store_read_share": "experiments.sweep.store_read",
    "experiments.sweep.store_write_share": "experiments.sweep.store_write",
    "experiments.render.self_share": "experiments.render",
    "serve.validate_share": "serve.validate",
    "serve.store_share": "serve.store",
    "serve.pool_wait_share": "serve.pool_wait",
    "serve.advise_share": "serve.advise",
}

#: Per-layer work counts: metric -> (span name, summed span attribute).
LAYER_COUNTS = {
    "curves.encode.calls": ("curves.encode", "entries"),
    "curves.encode.elems": ("curves.encode", "elems"),
    "trace.generate.accesses": ("trace.generate", "accesses"),
    "trace.ir.encode.bytes": ("trace.ir.encode", "bytes"),
    "trace.ir.write.bytes": ("trace.ir.write", "bytes"),
    "trace.ir.publish.bytes": ("trace.ir.publish", "bytes"),
    "trace.ir.decode.accesses": ("trace.ir.decode", "accesses"),
    "sim.replay.accesses": ("sim.replay", "accesses"),
    "sim.parallel.ipc_bytes": ("sim.parallel.ipc", "bytes"),
    "sim.analytic.calls": ("sim.analytic", "spans"),
    "perf.sampling.calls": ("perf.sampling", "spans"),
    "perf.sampling.ticks": ("perf.sampling", "ticks"),
}

SERVE_COUNTERS = ("admitted", "evaluations", "coalesced", "memo_hits",
                  "rejected", "degraded")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Harness:
    """Launches workload processes and reduces their results."""

    def __init__(self, args):
        self.args = args
        self.run_dir = SCRATCH / f"run-{os.getpid()}"
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=str(ROOT / "src"),
            XDG_CACHE_HOME=str(SCRATCH / "xdg"),
            TMPDIR=str(self.run_dir / "tmp"),
        )
        self.env.pop(tracing.ENV_DIR, None)
        self.seq = 0

    # -- processes -------------------------------------------------------------

    def _group_members(self, pgid: int) -> list[int]:
        """Live (non-zombie) processes in process group ``pgid``."""
        members = []
        for entry in Path("/proc").iterdir():
            if not entry.name.isdigit():
                continue
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            fields = stat.rsplit(")", 1)[1].split()
            if int(fields[2]) == pgid and fields[0] != "Z":
                members.append(int(entry.name))
        return members

    def _wait_group(self, pgid: int) -> int:
        """Wait up to the grace period for the group to empty; returns
        how many processes are still in it."""
        grace = time.monotonic() + LEAK_GRACE_S
        while self._group_members(pgid) and time.monotonic() < grace:
            time.sleep(0.05)
        return len(self._group_members(pgid))

    @staticmethod
    def _kill_group(pgid: int) -> None:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def launch(self, workload: str, role: str, env: dict) -> dict:
        """Run one workload process; returns its result (or a failure)."""
        self.seq += 1
        out = self.run_dir / f"{workload}-{role}-{self.seq}.json"
        log = self.run_dir / f"{workload}-{role}-{self.seq}.log"
        timeout = self.deadline - time.monotonic()
        if timeout <= 1:
            return {"error": "benchmark time budget exhausted"}
        launch = time.monotonic()
        cmd = [sys.executable, str(HERE / "workloads.py"),
               "--workload", workload, "--role", role,
               "--seed", str(self.args.seed),
               "--seconds", repr(self.args.seconds),
               "--launch", repr(launch), "--work", str(self.run_dir / "work"),
               "--out", str(out)]
        if self.args.smoke:
            cmd.append("--smoke")
        if self.serve_workers:
            cmd.append("--serve-workers")
        with open(log, "w") as fh:
            proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=fh,
                                    stderr=subprocess.STDOUT,
                                    start_new_session=True)
            try:
                proc.wait(timeout=timeout)
                failure = None
            except subprocess.TimeoutExpired:
                failure = f"timed out after {timeout:.0f} s"
                self._kill_group(proc.pid)
            except BaseException:  # interrupted: take the workload down too
                self._kill_group(proc.pid)
                proc.wait()
                self._wait_group(proc.pid)
                raise
            leaked = self._wait_group(proc.pid)
            if leaked:
                self._kill_group(proc.pid)
                self._wait_group(proc.pid)
                if failure is None:
                    failure = f"{leaked} process(es) outlived the workload"
            proc.wait()
        if failure is None and proc.returncode != 0:
            failure = f"exit code {proc.returncode}"
        result = json.loads(out.read_text()) if out.exists() else {}
        if failure is None and not result:
            failure = "no result written"
        if failure:
            result["error"] = failure
        if "error" in result:
            tail = log.read_text()[-2000:] if log.exists() else ""
            detail = result.get("traceback", "") or tail
            print(f"# {workload} {role}: {result['error']}\n{detail}",
                  file=sys.stderr)
        return result

    def prepare(self) -> None:
        """Build the C kernel and probe the CLI, outside every timing."""
        self.run_dir.mkdir(parents=True, exist_ok=True)
        (self.run_dir / "tmp").mkdir(exist_ok=True)
        build = subprocess.run(
            [sys.executable, "-c",
             "from repro.sim.backends import resolve_backend; "
             "print(resolve_backend('auto'))"],
            env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if build.returncode != 0:
            raise SystemExit(f"cannot import repro from {ROOT / 'src'}:\n"
                             f"{build.stderr[-2000:]}")
        # The serve eval pool is slated for deletion; pass --workers only
        # while the CLI still has it.
        helptext = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--help"],
            env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        self.serve_workers = "--workers" in helptext.stdout

    def cleanup(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)

    # -- one workload ------------------------------------------------------------

    def gated(self, workload: str, probes: int) -> dict:
        """Probes around one main process; returns end-to-end numbers."""
        self.deadline = time.monotonic() + BUDGET_S
        results = [self.launch(workload, "probe", self.env)
                   for _ in range(probes // 2)]
        main = self.launch(workload, "main", self.env)
        results += [self.launch(workload, "probe", self.env)
                    for _ in range(probes - probes // 2)]
        return reduce_results(results, main)

    def traced(self, workload: str, trace_dir: Path) -> dict:
        """One untraced and one traced main process; returns the ledger."""
        self.deadline = time.monotonic() + BUDGET_S
        plain = reduce_results([], self.launch(workload, "main", self.env))
        spans_dir = self.run_dir / f"spans-{workload}"
        shutil.rmtree(spans_dir, ignore_errors=True)
        env = dict(self.env)
        env[tracing.ENV_DIR] = str(spans_dir)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(HERE / "hook"), env["PYTHONPATH"]])
        main = self.launch(workload, "main", env)
        traced = reduce_results([], main)
        spans = tracing.load_spans(spans_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        traced["trace_file"] = str(tracing.write_journal(
            spans, trace_dir / f"{workload}.jsonl", f"ledger-{workload}"))
        serving = main.get("serving_pid", main.get("pid"))
        windows = main.get("windows")
        layers = tracing.layer_metrics(
            spans, serving, [tuple(w) for w in windows] if windows else None,
            main.get("timed_s"))
        key = OVERHEAD_METRIC[workload]
        base = plain["metrics"].get(key)
        overhead = (traced["metrics"][key] / base
                    if base and traced["metrics"].get(key) else 0.0)
        traced["layers"] = layers
        traced["per_layer"] = per_layer_metrics(
            layers, main.get("diag", {}), overhead)
        traced["untraced"] = plain["metrics"]
        for key in ("attempted", "failed", "checks", "errors"):
            traced[key] += plain[key]
        traced["correct"] = traced["correct"] and plain["correct"]
        return traced


def _median(values):
    return statistics.median(values) if values else 0.0


def reduce_results(probes: list[dict], main: dict) -> dict:
    """End-to-end metrics, counts and checks of one workload run.

    The time metrics are medians of the speed-scaled samples (see
    ``workloads.speed_probe``); the medians of the unscaled samples are
    kept under ``unscaled``.
    """
    procs = probes + [main]

    def samples(kind: str) -> dict[str, list[float]]:
        return {
            "setup_s": [p[kind]["setup"] for p in procs
                        if "setup" in p.get(kind, {})],
            "cold_s": [v for p in procs for v in p.get(kind, {}).get("cold", [])],
            "warm_s": main.get(kind, {}).get("warm", []),
        }

    scaled = samples("scaled")
    speeds = [s for p in procs for s in p.get("speed_probes", [])]
    errors = [p["error"] for p in procs if "error" in p]
    checks = [c for p in procs for c in p.get("checks", [])]
    attempted = (sum(p.get("attempted", 0) for p in procs)
                 + len(checks) + len(errors))
    failed = (sum(p.get("failed", 0) for p in procs)
              + sum(1 for c in checks if not c["ok"]) + len(errors))
    metrics = {name: _median(values) for name, values in scaled.items()}
    metrics["peak_rss_mb"] = main.get("peak_rss_mb", 0.0)
    return {
        "metrics": metrics,
        "unscaled": {name: _median(values)
                     for name, values in samples("unscaled").items()},
        "speed_probe_s": _median(speeds),
        "samples": {**{name: len(values) for name, values in scaled.items()},
                    "speed_probes": len(speeds)},
        "attempted": max(1, attempted),
        "failed": failed,
        "correct": failed == 0 and bool(checks),
        "checks": checks,
        "errors": errors,
        "env": main.get("env", {}),
        "diagnostics": main.get("diag", {}),
    }


def per_layer_metrics(layers: dict, diag: dict, overhead: float) -> dict:
    """The ``per_layer`` metrics of BENCHMARK.json from a traced run."""
    timed = layers["unattributed"]["timed_s"]
    out = {}
    for metric, name in LAYER_SHARES.items():
        self_s = layers.get(name, {}).get("self_s", 0.0)
        out[metric] = self_s / timed if timed else 0.0
    for metric, (name, attr) in LAYER_COUNTS.items():
        out[metric] = layers.get(name, {}).get(attr, 0)
    replay = layers.get("sim.replay", {})
    out["sim.replay.maccess_per_s"] = (
        replay["accesses"] / replay["self_s"] / 1e6
        if replay.get("self_s") else 0.0)
    out["experiments.sweep.hit_rate"] = diag.get("hit_rate", 0.0)
    out["experiments.sweep.retries"] = diag.get("retries", 0)
    counters = diag.get("counters", {})
    for name in SERVE_COUNTERS:
        out[f"serve.{name}"] = counters.get(name, 0)
    admitted = counters.get("admitted", 0)
    out["serve.hit_rate"] = (1 - counters.get("evaluations", 0) / admitted
                             if admitted else 0.0)
    out["timed_s"] = timed
    out["unattributed_share"] = (layers["unattributed"]["self_s"] / timed
                                 if timed else 0.0)
    out["trace_overhead"] = overhead
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Run the ledger benchmark (see BENCHMARK.json).")
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="one workload (default: all four)")
    ap.add_argument("--seed", type=int, default=1107)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed window (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced run")
    ap.add_argument("--trace-dir", default=str(SCRATCH / "trace"),
                    help="where --trace 1 writes the merged traces")
    ap.add_argument("--smoke", action="store_true",
                    help="scaled sizes and a 1 s window, for tests")
    ap.add_argument("--out", help="also write the full results as JSON here")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [args.workload] if args.workload else list(WORKLOADS)

    # A terminated harness unwinds through Harness.launch, which takes
    # the running workload's process group down with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    harness = Harness(args)
    started = time.monotonic()
    try:
        harness.prepare()
        runs = {}
        for name in names:
            if args.trace:
                runs[name] = harness.traced(name, Path(args.trace_dir))
            else:
                runs[name] = harness.gated(
                    name, 2 if args.smoke else WORKLOADS[name].probes)
    finally:
        harness.cleanup()

    env = {
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": next((r["env"].get("numpy") for r in runs.values()
                       if r["env"].get("numpy")), None),
        "backend": next((r["env"].get("backend") for r in runs.values()
                         if r["env"].get("backend")), None),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": args.trace,
        "wall_s": time.monotonic() - started,
    }
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    units = {m["name"]: m["unit"] for m in declared}
    for name, run in runs.items():
        values = run["per_layer"] if args.trace else run["metrics"]
        for metric, unit in units.items():
            print(f"{name:<14} {metric:<38} {values[metric]:>14.6g} {unit}")
        diag = dict(run["diagnostics"])
        diag.pop("errors", None)
        print(f"# {name} samples={run['samples']} diagnostics="
              f"{json.dumps(diag, sort_keys=True)}")
        print(f"# {name} unscaled={json.dumps(run['unscaled'])} "
              f"speed_probe_s={run['speed_probe_s']:.6g}")
        for check in run["checks"]:
            if not check["ok"]:
                print(f"# {name} FAILED CHECK {check['name']}: {check['detail']}")
        for error in run["errors"]:
            print(f"# {name} FAILED PROCESS: {error}")
        if args.trace:
            self_s = {layer: round(row["self_s"], 4)
                      for layer, row in sorted(run["layers"].items())}
            print(f"# {name} self_s={json.dumps(self_s)}")
            print(f"# {name} untraced={json.dumps(run['untraced'])}")
            print(f"# {name} trace {run['trace_file']}")

    def metric_values(run):
        values = run["per_layer"] if args.trace else run["metrics"]
        return {m: {"value": values[m], "unit": u} for m, u in units.items()}

    if len(runs) == 1:
        metrics = metric_values(next(iter(runs.values())))
    else:
        metrics = {f"{name}.{m}": v for name, run in runs.items()
                   for m, v in metric_values(run).items()}
    summary = {
        "correct": all(r["correct"] for r in runs.values()),
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
        "metrics": metrics,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"env": env, "workloads": runs, "summary": summary},
            indent=1, sort_keys=True, default=str))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
