"""Command-line interface: regenerate the paper's artifacts from a shell.

``sfc-repro <command>`` (or ``python -m repro.cli``):

* ``table4``     — Table IV, all 216 sample points.
* ``fig4``       — Fig. 4 speedup series per scheme.
* ``fig5``       — Fig. 5 RM speedup vs frequency.
* ``fig6``       — Fig. 6 energy-vs-time series (8s/8d).
* ``predict``    — one sample point (scheme/size/frequency/threads).
* ``validate``   — evaluate the paper's findings; non-zero exit on failure.
* ``sweep``      — disk-cached sweep of the 216-point grid.
* ``serve``      — the locality-advisor HTTP service
  (``POST /v1/advise``: predicted curves + recommended ordering).
* ``cachegrind`` — the Section IV-A LL-miss study.
* ``mrc``        — miss-ratio curves with conflict-miss isolation.
* ``atlas``      — the tiled-vs-naive wall-clock comparison.
* ``hardware``   — the future-work index-hardware study.
* ``gallery``    — Figures 1/2 as ASCII art.
* ``trace``      — materialize a trace spec to a columnar IR file,
  print segment statistics and verify checksums.
* ``trace-report`` — span-tree summary of a ``--trace`` file.

``sweep``/``cachegrind``/``mrc`` accept ``--trace FILE`` (JSONL span
trace, including worker-process spans), ``--metrics FILE`` (counters/
gauges/histograms snapshot) and ``--profile`` (sampling profiler +
per-phase memory peaks); all three are off by default and provably
inert when off.
"""

from __future__ import annotations

import argparse
import sys

from repro.sim.backends import BACKENDS

__all__ = ["main", "build_parser"]


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    """Observability sinks shared by the long-running subcommands."""
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="append a structured span trace (JSONL, including "
                        "worker-process spans) to FILE")
    p.add_argument("--metrics", default=None, metavar="FILE",
                   help="write a metrics snapshot (counters/gauges/"
                        "histograms) to FILE on exit")
    p.add_argument("--profile", action="store_true",
                   help="enable the sampling profiler and per-phase memory "
                        "peaks (requires --trace and/or --metrics)")


def _add_backend_flag(p: argparse.ArgumentParser) -> None:
    """Cache-replay backend of the trace-driven studies."""
    p.add_argument("--backend", choices=("auto",) + BACKENDS,
                   default="auto",
                   help="cache-replay backend (repro.sim.backends): 'auto' "
                        "picks the quickest available; every choice is "
                        "bit-identical")


def _obs_session(args):
    """An ObsSession for the parsed flags, or an inert null context."""
    import contextlib

    if getattr(args, "trace", None) or getattr(args, "metrics", None):
        from repro.obs import ObsSession

        return ObsSession(
            trace=args.trace, metrics=args.metrics, profile=args.profile,
            root=args.command,
        )
    if getattr(args, "profile", False):
        from repro.errors import ObservabilityError

        raise ObservabilityError("--profile requires --trace and/or --metrics")
    return contextlib.nullcontext()


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="sfc-repro",
        description="Reproduce 'A Study of Energy and Locality Effects "
        "using Space-filling Curves' (Reissmann et al., 2014).",
    )
    parser.add_argument(
        "--debug", action="store_true",
        help="re-raise errors with a full traceback instead of mapping "
             "them to exit codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table4", help="print Table IV (absolute times)")
    sub.add_parser("fig4", help="print Fig. 4 speedup series")
    sub.add_parser("fig5", help="print Fig. 5 frequency speedup series")
    sub.add_parser("fig6", help="print Fig. 6 energy/time series")
    sub.add_parser("validate", help="check the paper's findings hold")

    p = sub.add_parser("predict", help="model one sample point")
    p.add_argument("--scheme", default="mo",
                   help="ordering: rm/mo/ho (also mo-inc, ho-hw)")
    p.add_argument("--size", type=int, default=11,
                   help="problem size exponent (side = 2^size)")
    p.add_argument("--frequency", default="2.6",
                   help="GHz value or 'ondemand'")
    p.add_argument("--threads", default="8s",
                   help="thread config, e.g. 1s, 4s, 8s, 2d, 8d, 16d")

    w = sub.add_parser(
        "sweep",
        help="sweep the full grid through the on-disk result cache",
    )
    w.add_argument("--cache-dir", default=None,
                   help="on-disk result cache root "
                        "(default: $XDG_CACHE_HOME/sfc-repro/sweep)")
    w.add_argument("--no-cache", action="store_true",
                   help="disable the on-disk cache entirely")
    w.add_argument("--resume", action="store_true",
                   help="merge points already present in --output and "
                        "only compute the rest")
    w.add_argument("--output", default=None,
                   help="write the swept ResultSet (.json or .csv)")
    w.add_argument("--measure", choices=("model", "sampled"), default="model",
                   help="energies straight from the model, or re-measured "
                        "through the 10 Hz RAPL sampling chain")
    _add_obs_flags(w)

    sv = sub.add_parser(
        "serve",
        help="run the locality-advisor HTTP service (POST /v1/advise)",
    )
    sv.add_argument("--host", default="127.0.0.1",
                    help="listen address")
    sv.add_argument("--port", type=int, default=8713,
                    help="listen port (0 picks an ephemeral port)")
    sv.add_argument("--workers", type=int, default=0,
                    help="evaluation worker processes; 0 serves the "
                         "analytic model in-process")
    sv.add_argument("--queue-limit", type=int, default=32,
                    help="max requests in flight before 429 + Retry-After")
    sv.add_argument("--deadline-s", type=float, default=None,
                    help="default per-request deadline when the request "
                         "does not set deadline_s")
    sv.add_argument("--max-deadline-s", type=float, default=30.0,
                    help="ceiling applied to client-supplied deadlines")
    sv.add_argument("--hang-timeout-s", type=float, default=10.0,
                    help="watchdog timeout for silent evaluation workers")
    sv.add_argument("--cache-dir", default=None,
                    help="share the sweep's on-disk result cache "
                         "(default: $XDG_CACHE_HOME/sfc-repro/sweep)")
    sv.add_argument("--no-cache", action="store_true",
                    help="serve without the on-disk result cache")
    sv.add_argument("--state-dir", default=None, metavar="DIR",
                    help="journal warm results here so a restarted "
                         "service reboots warm")
    _add_obs_flags(sv)

    c = sub.add_parser("cachegrind", help="run the Section IV-A study")
    c.add_argument("--n", type=int, default=128, help="scaled problem side")
    c.add_argument("--rows", type=int, default=5, help="sampled output rows")
    c.add_argument("--capacity-ratio", type=float, default=19.7,
                   help="working set / LL size (paper size 12: ~19.7)")
    _add_backend_flag(c)
    c.add_argument("--workers", type=int, default=None,
                   help="fan per-scheme simulations out to a process pool "
                        "(bit-identical to the serial study)")
    c.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="journal each completed scheme to this append-only "
                        "file (crash-safe)")
    c.add_argument("--resume", action="store_true",
                   help="replay --checkpoint and skip the schemes it holds")
    c.add_argument("--on-failure", choices=("raise", "serial"),
                   default="raise",
                   help="worker-failure policy: fail fast, or degrade to "
                        "the bit-identical serial path")
    c.add_argument("--trace-cache", default=None, metavar="DIR",
                   help="content-addressed trace-IR cache: a scheme "
                        "whose trace is missing builds it while replaying "
                        "it, later runs memory-map it (bit-identical "
                        "reports)")
    _add_obs_flags(c)

    m = sub.add_parser("mrc", help="miss-ratio curves (capacity vs conflict)")
    m.add_argument("--n", type=int, default=64, help="problem side")
    m.add_argument("--rows", type=int, default=2, help="sampled output rows")
    _add_backend_flag(m)
    m.add_argument("--workers", type=int, default=None,
                   help="fan per-scheme decompositions out to a process "
                        "pool (bit-identical to the serial study)")
    m.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="journal each completed scheme to this append-only "
                        "file (crash-safe)")
    m.add_argument("--resume", action="store_true",
                   help="replay --checkpoint and skip the schemes it holds")
    m.add_argument("--on-failure", choices=("raise", "serial"),
                   default="raise",
                   help="worker-failure policy: fail fast, or degrade to "
                        "the bit-identical serial path")
    m.add_argument("--trace-cache", default=None, metavar="DIR",
                   help="content-addressed trace-IR cache: a scheme "
                        "whose trace is missing builds it while replaying "
                        "it, later runs memory-map it (bit-identical "
                        "curves)")
    _add_obs_flags(m)

    q = sub.add_parser(
        "query", help="chunked-store query study: utilization/speedup per ordering"
    )
    q.add_argument("--grid", type=int, default=32,
                   help="chunk grid side (power of two)")
    q.add_argument("--tile", type=int, default=8,
                   help="points per chunk side (power of two)")
    q.add_argument("--orderings", default="rm,mo,ho",
                   help="comma-separated curve codes for chunk placement")
    q.add_argument("--workloads", default="bbox,range,knn",
                   help="comma-separated query kinds")
    q.add_argument("--queries", type=int, default=64,
                   help="queries per workload")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--fetch-chunks", type=int, default=4,
                   help="store read granularity in chunks (power of two)")
    _add_backend_flag(q)
    _add_obs_flags(q)

    t = sub.add_parser(
        "trace",
        help="materialize a trace spec to a columnar IR file: segment "
             "stats, compression ratio, checksum verification",
    )
    t.add_argument("--kind", required=True,
                   choices=("matmul", "blocked", "synthetic", "query"),
                   help="trace generator family (repro.trace.ir.TRACE_KINDS)")
    t.add_argument("--params", required=True, metavar="JSON",
                   help="generator parameters as a JSON object, e.g. "
                        "'{\"n\": 64, \"scheme_a\": \"ho\", \"scheme_b\": "
                        "\"ho\", \"scheme_c\": \"ho\"}'")
    t.add_argument("--line-bytes", type=int, default=64,
                   help="cache-line granularity the addresses are lowered "
                        "to (power of two)")
    t.add_argument("--output", default=None, metavar="FILE",
                   help="write the IR file here instead of the "
                        "content-addressed cache")
    t.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="trace-IR cache root (default: "
                        "$XDG_CACHE_HOME/sfc-repro/traceir)")

    tr = sub.add_parser(
        "trace-report",
        help="summarize a --trace file: span tree, self/total time, hotspots",
    )
    tr.add_argument("path", help="trace file written by --trace")
    tr.add_argument("--top", type=int, default=15,
                    help="rows in the hotspot / profile tables")

    a = sub.add_parser("atlas", help="tiled+tuned vs naive wall clock")
    a.add_argument("--side", type=int, default=128)

    h = sub.add_parser("hardware", help="future-work index-hardware study")
    h.add_argument("--size", type=int, default=12)
    h.add_argument("--threads", default="16d")

    g = sub.add_parser("gallery", help="render Figures 1 and 2")
    g.add_argument("--order", type=int, default=2)

    e = sub.add_parser("edp", help="energy-delay-product optima per scheme")
    e.add_argument("--threads", default="8s")

    sub.add_parser("roofline", help="roofline placement per scheme/size")
    sub.add_parser("scaling", help="speedup/efficiency over all placements")

    r = sub.add_parser("report", help="full reproduction report (markdown)")
    r.add_argument("--output", default=None,
                   help="write to a file instead of stdout")
    r.add_argument("--cache-dir", default=None,
                   help="run the grid through the sweep engine with its "
                        "result cache at this root")
    return parser


def _cmd_table4(_args) -> int:
    from repro.experiments import ExperimentRunner, render_table4

    print(render_table4(ExperimentRunner()))
    return 0


def _cmd_fig4(_args) -> int:
    from repro.experiments import ExperimentRunner, fig4_speedup, render_series

    runner = ExperimentRunner()
    for size, series in fig4_speedup(runner).items():
        print(render_series(series, f"Fig 4 — size {size}", "threads", "speedup"))
        print()
    return 0


def _cmd_fig5(_args) -> int:
    from repro.experiments import ExperimentRunner, fig5_frequency_speedup, render_series

    runner = ExperimentRunner()
    for size, series in fig5_frequency_speedup(runner).items():
        print(render_series(series, f"Fig 5 — size {size}", "threads", "speedup"))
        print()
    return 0


def _cmd_fig6(_args) -> int:
    from repro.experiments import ExperimentRunner, fig6_energy_time, render_series

    runner = ExperimentRunner()
    for (tc, size), series in fig6_energy_time(runner).items():
        print(render_series(series, f"Fig 6 — {tc}, size {size}",
                            "Energy [J]", "Time [s]"))
        print()
    return 0


def _cmd_predict(args) -> int:
    from repro.errors import ExperimentError
    from repro.experiments import ExperimentRunner, SampleConfig

    if args.frequency == "ondemand":
        freq = args.frequency
    else:
        try:
            freq = float(args.frequency)
        except ValueError:
            raise ExperimentError(
                f"--frequency must be a GHz value or 'ondemand', "
                f"got {args.frequency!r}"
            ) from None
    cfg = SampleConfig(args.scheme, args.size, freq, args.threads)
    r = ExperimentRunner().run(cfg)
    print(f"{cfg.key}:")
    print(f"  time    {r.seconds:10.2f} s  (compute {r.compute_seconds:.2f}, "
          f"memory {r.memory_seconds:.2f})")
    print(f"  clock   {r.freq_ghz:10.2f} GHz")
    print(f"  misses  {r.llc_misses:10.3e} LLC lines")
    print(f"  energy  {r.package_j:10.1f} J package "
          f"({r.pp0_j:.1f} PP0, {r.dram_j:.1f} DRAM)")
    return 0


def _cmd_validate(_args) -> int:
    from repro.experiments import ExperimentRunner, validate_all

    claims = validate_all(ExperimentRunner())
    failed = 0
    for c in claims:
        status = "PASS" if c.holds else "FAIL"
        failed += not c.holds
        print(f"[{status}] {c.name}: {c.detail}")
    return 1 if failed else 0


def _cmd_sweep(args) -> int:
    from pathlib import Path

    from repro.experiments import ResultSet
    from repro.experiments.sweep import SweepEngine, default_cache_dir

    cache_dir = None
    if not args.no_cache:
        cache_dir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()

    resume_from = None
    if args.resume and args.output and Path(args.output).exists():
        out_path = Path(args.output)
        resume_from = (
            ResultSet.from_csv(out_path)
            if out_path.suffix == ".csv"
            else ResultSet.from_json(out_path)
        )

    engine = SweepEngine(
        cache_dir=cache_dir,
        measure=args.measure,
        progress=sys.stderr.isatty(),
    )
    with _obs_session(args):
        results = engine.run(resume_from=resume_from)
    stats = engine.stats
    print(
        f"swept {stats.points} points in {stats.seconds:.3f} s "
        f"({stats.points_per_sec:,.0f} pts/s) — "
        f"{stats.cache_hits} cache hits ({stats.cache_hit_rate:.0%}), "
        f"{stats.resumed} resumed"
    )
    if cache_dir is not None:
        print(f"cache: {engine.cache.dir}")
        print(f"telemetry: {engine.log_path}")
    if args.output:
        out_path = Path(args.output)
        if out_path.suffix == ".csv":
            results.to_csv(out_path)
        else:
            results.to_json(out_path)
        print(f"wrote {out_path}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    from pathlib import Path

    from repro.experiments.sweep import default_cache_dir
    from repro.serve import AdvisorService

    cache_dir = None
    if not args.no_cache:
        cache_dir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    service = AdvisorService(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        default_deadline_s=args.deadline_s,
        max_deadline_s=args.max_deadline_s,
        hang_timeout_s=args.hang_timeout_s,
        cache_dir=cache_dir,
        state_dir=args.state_dir,
    )

    async def run() -> None:
        import signal

        # Background jobs in non-interactive shells inherit SIGINT as
        # SIG_IGN, so rely on explicit handlers rather than Python's
        # default KeyboardInterrupt for both signals.
        stop = asyncio.Event()
        try:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # non-Unix event loop
            pass
        await service.start()
        print(f"advisor listening on http://{service.host}:{service.port} "
              f"({args.workers} workers, fingerprint "
              f"{service.state.fingerprint[:16]})", flush=True)
        if service.state.warm_restored:
            print(f"restored {service.state.warm_restored} warm results "
                  f"from {args.state_dir}", flush=True)
        try:
            await stop.wait()
        finally:
            await service.stop()
        print("advisor stopped", flush=True)

    with _obs_session(args):
        try:
            asyncio.run(run())
        except KeyboardInterrupt:
            pass
    return 0


def _cmd_cachegrind(args) -> int:
    from repro.errors import ExperimentError
    from repro.experiments import run_cachegrind_study

    if args.resume and not args.checkpoint:
        raise ExperimentError("--resume requires --checkpoint")
    with _obs_session(args):
        study = run_cachegrind_study(
            n=args.n, capacity_ratio=args.capacity_ratio, n_rows=args.rows,
            schemes=("rm", "mo", "ho"), backend=args.backend,
            workers=args.workers,
            checkpoint=args.checkpoint, resume=args.resume,
            on_failure=args.on_failure, trace_cache=args.trace_cache,
        )
    print(study.summary())
    print()
    print(study.reports["mo"].annotate())
    return 0


def _cmd_mrc(args) -> int:
    from repro.errors import ExperimentError
    from repro.experiments import render_mrc, run_mrc_study

    if args.resume and not args.checkpoint:
        raise ExperimentError("--resume requires --checkpoint")
    with _obs_session(args):
        curves = run_mrc_study(
            n=args.n, sample_rows=args.rows, backend=args.backend,
            workers=args.workers,
            checkpoint=args.checkpoint, resume=args.resume,
            on_failure=args.on_failure, trace_cache=args.trace_cache,
        )
    print(render_mrc(curves))
    return 0


def _cmd_query(args) -> int:
    from repro.experiments import render_query_table, run_query_study

    with _obs_session(args):
        study = run_query_study(
            grid_side=args.grid, tile_side=args.tile,
            orderings=tuple(args.orderings.split(",")),
            workloads=tuple(args.workloads.split(",")),
            n_queries=args.queries, seed=args.seed,
            fetch_chunks=args.fetch_chunks,
            backend=args.backend,
        )
    print(render_query_table(study))
    return 0


def _cmd_trace(args) -> int:
    import json

    from repro.errors import TraceError
    from repro.trace.ir import (
        TraceIRCache,
        TraceIRReader,
        build_trace_chunks,
        trace_fingerprint,
        write_trace_ir,
    )

    try:
        params = json.loads(args.params)
    except ValueError as exc:
        raise TraceError(f"--params is not valid JSON: {exc}") from None
    if not isinstance(params, dict):
        raise TraceError("--params must be a JSON object")

    if args.output:
        fp = trace_fingerprint(args.kind, params, args.line_bytes)
        path = write_trace_ir(
            args.output, build_trace_chunks(args.kind, params),
            args.line_bytes,
            meta={"kind": args.kind, "params": params, "fingerprint": fp},
        )
    else:
        path = TraceIRCache(args.cache_dir).get_or_build(
            args.kind, params, args.line_bytes
        )

    with TraceIRReader(path) as reader:
        # stats() re-decodes every segment, so it doubles as a full
        # digest verification pass.
        st = reader.stats()
        print(f"trace IR: {path}")
        print(f"  kind          {args.kind}")
        print(f"  accesses      {st.accesses:,}")
        print(f"  segments      {st.segments:,}")
        print(f"  unique lines  {st.unique_lines:,}")
        print(f"  writes        {st.writes:,}")
        print(f"  line bytes    {st.line_bytes}")
        print(f"  encoded       {st.encoded_bytes:,} B")
        print(f"  raw columns   {st.raw_bytes:,} B")
        print(f"  compression   {st.compression_ratio:.2f}x")
        print("  checksums     OK (every segment digest verified)")
    return 0


def _cmd_trace_report(args) -> int:
    from repro.obs.report import render_report

    print(render_report(args.path, top=args.top))
    return 0


def _cmd_atlas(args) -> int:
    from repro.experiments import run_atlas_comparison

    print(run_atlas_comparison(side=args.side).summary())
    return 0


def _cmd_hardware(args) -> int:
    from repro.experiments import run_hardware_assist_study

    print(run_hardware_assist_study(
        size_exp=args.size, thread_config=args.threads
    ).summary())
    return 0


def _cmd_gallery(args) -> int:
    from repro.curves import (
        hilbert_sequence,
        morton_sequence,
        render_traversal_grid,
        render_traversal_path,
    )

    print(f"Morton, order {args.order}:")
    print(render_traversal_grid(morton_sequence(args.order)))
    print(render_traversal_path(morton_sequence(args.order)))
    print(f"\nHilbert, order {args.order}:")
    print(render_traversal_grid(hilbert_sequence(args.order)))
    print(render_traversal_path(hilbert_sequence(args.order)))
    return 0


def _cmd_edp(args) -> int:
    from repro.experiments import ExperimentRunner, edp_table, render_edp_table

    print(render_edp_table(edp_table(ExperimentRunner(), thread_config=args.threads)))
    return 0


def _cmd_roofline(_args) -> int:
    from repro.experiments import ExperimentRunner, render_roofline_table, roofline_table

    print(render_roofline_table(roofline_table(ExperimentRunner())))
    return 0


def _cmd_report(args) -> int:
    from repro.experiments import generate_report

    sweep = None
    if args.cache_dir is not None:
        from repro.experiments.sweep import SweepEngine

        sweep = SweepEngine(cache_dir=args.cache_dir)
    text = generate_report(sweep=sweep)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_scaling(_args) -> int:
    from repro.experiments import ExperimentRunner, render_scaling_table, scaling_table

    print(render_scaling_table(scaling_table(ExperimentRunner())))
    return 0


_COMMANDS = {
    "table4": _cmd_table4,
    "fig4": _cmd_fig4,
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "predict": _cmd_predict,
    "validate": _cmd_validate,
    "sweep": _cmd_sweep,
    "serve": _cmd_serve,
    "cachegrind": _cmd_cachegrind,
    "mrc": _cmd_mrc,
    "query": _cmd_query,
    "trace": _cmd_trace,
    "trace-report": _cmd_trace_report,
    "atlas": _cmd_atlas,
    "hardware": _cmd_hardware,
    "gallery": _cmd_gallery,
    "edp": _cmd_edp,
    "roofline": _cmd_roofline,
    "scaling": _cmd_scaling,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code.

    Expected failures — anything in the :class:`~repro.errors.ReproError`
    taxonomy, such as a malformed thread config or a worker crash — are
    reported on stderr with exit code 1.  Anything else (including plain
    ``ValueError``/``KeyError`` escaping library code) is an *unexpected*
    error: exit code 2.  ``--debug`` re-raises either kind with the full
    traceback instead.
    """
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        if args.debug:
            raise
        print(f"sfc-repro: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        if args.debug:
            raise
        print(
            f"sfc-repro: unexpected error: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
