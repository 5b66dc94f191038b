"""Structured tracing core: spans, the JSONL recorder, process contexts.

The observability layer is **off by default and provably inert**: the
module-level :data:`OBS` state starts with no recorder, no metrics
registry and profiling disabled, and every hook (:func:`span`,
:func:`count`, :func:`phase_span`, ...) is a single attribute check on
that path — ``tests/obs/test_inert.py`` enforces both bit-identical
study outputs and a <2% disabled-path overhead bound differentially.

When a session is active, spans are nested wall/CPU-timed intervals with
per-process monotonic ids, written to an append-only JSONL file in
exactly the :mod:`repro.robust.journal` record format — one record per
line, ``{"v", "kind", "payload", "sha"}`` with a SHA-256 of the
canonical payload, single-``write`` appends with fsync — so a crashed
run leaves at most a detectably torn tail and
:meth:`~repro.robust.journal.CheckpointJournal.replay` reads traces
back verbatim.

Cross-process propagation: :func:`worker_context` captures a picklable
:class:`SpanContext` (trace file, trace id, current span id, profiling
flag); a worker process re-attaches with :func:`attach` and appends its
spans to the *same* file (O_APPEND single-line writes interleave safely
across processes), parented under the capturing span — one trace tree
covers parent and workers.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ObservabilityError
from repro.robust.journal import JOURNAL_VERSION, payload_sha

__all__ = [
    "NULL_SPAN",
    "OBS",
    "ObsSession",
    "Span",
    "SpanContext",
    "TraceRecorder",
    "attach",
    "count",
    "gauge",
    "gen_trace_id",
    "metrics_active",
    "observe",
    "phase_span",
    "profiling_active",
    "span",
    "tracing_active",
    "worker_context",
]

#: Process-wide sequence distinguishing ids minted in the same clock tick.
_TRACE_ID_SEQ = itertools.count(1)


def gen_trace_id(prefix: str = "t") -> str:
    """Mint a process-unique id in the trace-id format.

    ``<prefix><pid hex>-<seq hex>-<ns hex>`` — the pid scopes ids across
    processes sharing one trace file, the monotonic sequence breaks ties
    within one clock tick (``next`` on a :func:`itertools.count` is
    atomic under the GIL, so minting is thread-safe), and the wall-clock
    nanoseconds make ids sortable-ish for humans.  The advisor service
    mints per-request ids with ``prefix="req"``; fresh
    :class:`TraceRecorder` instances mint their trace ids here too.
    """
    return f"{prefix}{os.getpid():x}-{next(_TRACE_ID_SEQ):x}-{time.time_ns():x}"


def _json_safe(value):
    """Coerce a span-attribute value to something canonical JSON accepts."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return str(value)


class _NullSpan:
    """The disabled-path span: every operation is a no-op.

    A single shared instance is returned by :func:`span` whenever no
    recorder is installed, so the off path allocates nothing.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        return None


NULL_SPAN = _NullSpan()


class _ObsState:
    """Process-global observability state (one per process).

    ``recorder is None and metrics is None and not profile`` is the
    inert default; sessions and worker attachments install/restore it.
    """

    __slots__ = ("recorder", "metrics", "profile")

    def __init__(self):
        self.recorder = None
        self.metrics = None
        self.profile = False


OBS = _ObsState()


def tracing_active() -> bool:
    """True when a trace recorder is installed in this process."""
    return OBS.recorder is not None


def metrics_active() -> bool:
    """True when a metrics registry is installed in this process."""
    return OBS.metrics is not None


def profiling_active() -> bool:
    """True when profiling hooks (sampler + per-span memory) are on."""
    return OBS.profile


def span(name: str, _mem: bool = False, **attrs):
    """Open a traced span (context manager); no-op when tracing is off.

    ``_mem=True`` requests a tracemalloc peak capture for the span, which
    only happens when profiling is also enabled.
    """
    rec = OBS.recorder
    if rec is None:
        return NULL_SPAN
    return Span(rec, name, attrs, mem=_mem and OBS.profile)


def phase_span(name: str, **attrs):
    """Span around a heavy internal phase (cache replay, L3 replay, shard).

    Emitted only when *profiling* is enabled on top of tracing: these
    sites fire once per chunk/shard and would bloat ordinary traces.
    Memory peaks are always captured for phase spans.
    """
    if not OBS.profile:
        return NULL_SPAN
    rec = OBS.recorder
    if rec is None:
        return NULL_SPAN
    return Span(rec, name, attrs, mem=True)


def count(name: str, value: int | float = 1, **labels) -> None:
    """Increment a counter; no-op when metrics are off."""
    m = OBS.metrics
    if m is not None:
        m.count(name, value, **labels)


def gauge(name: str, value, **labels) -> None:
    """Set a gauge; no-op when metrics are off."""
    m = OBS.metrics
    if m is not None:
        m.gauge(name, value, **labels)


def observe(name: str, value, **labels) -> None:
    """Record a histogram observation; no-op when metrics are off."""
    m = OBS.metrics
    if m is not None:
        m.observe(name, value, **labels)


class Span:
    """One nested interval: wall + CPU time, attributes, optional memory.

    Created by :func:`span` / :func:`phase_span`; use as a context
    manager.  Ids are ``"<pid hex>.<seq>"`` with a per-process monotonic
    sequence, so ids are unique across the processes sharing one trace.
    """

    __slots__ = (
        "_rec", "name", "attrs", "span_id", "parent_id",
        "_t_epoch", "_wall0", "_cpu0", "_mem", "_tm_started", "mem_peak_kb",
    )

    def __init__(self, rec: "TraceRecorder", name: str, attrs: dict, mem: bool = False):
        self._rec = rec
        self.name = name
        self.attrs = dict(attrs)
        self.span_id = ""
        self.parent_id = None
        self._mem = mem
        self._tm_started = False
        self.mem_peak_kb = None

    def set(self, **attrs) -> None:
        """Attach/overwrite attributes (recorded at span exit)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self.parent_id = self._rec._push(self)
        if self._mem:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._tm_started = True
            else:
                # Nested captures reset the shared peak; peaks are exact
                # for the innermost profiled span only (documented).
                tracemalloc.reset_peak()
        self._t_epoch = time.time()
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        if self._mem:
            import tracemalloc

            self.mem_peak_kb = round(tracemalloc.get_traced_memory()[1] / 1024, 3)
            if self._tm_started:
                tracemalloc.stop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._rec._pop(self, wall, cpu)
        return False


@dataclass(frozen=True)
class SpanContext:
    """Picklable handle that parents a worker's spans under the caller's.

    Ships the trace file path, the trace id, the capturing span's id and
    the profiling flag across a process boundary (pickled pool-worker
    args); :func:`attach` reconstructs a recorder from it.  When
    ``metrics`` is set, :func:`attach` also installs a fresh
    :class:`~repro.obs.metrics.MetricsRegistry` so worker-side counters
    are captured; the engine is responsible for shipping that registry's
    ``export()`` back and merging it into the parent's (see
    :mod:`repro.sim.parallel`).  ``path`` is ``None`` for metrics-only
    sessions (no trace sink).
    """

    path: str | None
    trace_id: str
    parent_id: str | None
    profile: bool = False
    metrics: bool = False


def worker_context() -> SpanContext | None:
    """Capture the current span as a cross-process parent (or ``None``).

    Returns ``None`` when observability is fully off, so engine code can
    pass the result to workers unconditionally.  A metrics-only session
    (no trace sink) still yields a context with ``metrics=True`` and no
    path.
    """
    rec = OBS.recorder
    if rec is None and OBS.metrics is None:
        return None
    return SpanContext(
        path=str(rec.path) if rec is not None else None,
        trace_id=rec.trace_id if rec is not None else "",
        parent_id=rec.current_parent() if rec is not None else None,
        profile=OBS.profile,
        metrics=OBS.metrics is not None,
    )


class attach:
    """Worker-side context manager installing a recorder from a context.

    ``attach(None)`` is a no-op, so worker code does not need to branch
    on whether the parent was tracing.  The previous state is restored on
    exit (nested attaches are safe).
    """

    def __init__(self, ctx: SpanContext | None):
        self._ctx = ctx
        self._saved = None

    def __enter__(self):
        ctx = self._ctx
        if ctx is None:
            return None
        from repro.obs.metrics import MetricsRegistry

        self._saved = (OBS.recorder, OBS.metrics, OBS.profile)
        OBS.recorder = (
            TraceRecorder(
                ctx.path, trace_id=ctx.trace_id, root_parent_id=ctx.parent_id
            )
            if ctx.path is not None
            else None
        )
        # A fresh worker-local registry: the engine ships its export()
        # back with the result stream and merges it into the parent's.
        OBS.metrics = MetricsRegistry() if getattr(ctx, "metrics", False) else None
        OBS.profile = ctx.profile
        return OBS.recorder

    def __exit__(self, *exc) -> bool:
        if self._ctx is None:
            return False
        try:
            if OBS.recorder is not None:
                OBS.recorder.close()
        finally:
            OBS.recorder, OBS.metrics, OBS.profile = self._saved
        return False


class TraceRecorder:
    """Append-only JSONL span sink in the checkpoint-journal record format.

    Every record is one line ``{"v": 1, "kind": ..., "payload": ...,
    "sha": <sha256 of kind + canonical payload>}`` written with a single
    ``os.write`` on an ``O_APPEND`` descriptor and fsynced — the same
    discipline as :class:`repro.robust.journal.CheckpointJournal`, whose
    ``replay()`` reads trace files back with integrity checks.  A fresh
    recorder (no ``trace_id``) emits a ``trace_begin`` record; attached
    worker recorders append to the same file without one.
    """

    def __init__(
        self,
        path: str | Path,
        trace_id: str | None = None,
        root_parent_id: str | None = None,
    ):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        self._lock = threading.Lock()
        self._seq = 0
        self._stack: list[Span] = []
        self._root_parent = root_parent_id
        if trace_id is None:
            self.trace_id = gen_trace_id()
            self.emit(
                "trace_begin",
                {"trace_id": self.trace_id, "pid": self.pid, "t0": time.time()},
            )
        else:
            self.trace_id = trace_id

    def current_parent(self) -> str | None:
        """Id of the innermost open span (or the attached root parent)."""
        return self._stack[-1].span_id if self._stack else self._root_parent

    def _push(self, s: Span) -> str | None:
        parent = self.current_parent()
        self._seq += 1
        s.span_id = f"{self.pid:x}.{self._seq}"
        self._stack.append(s)
        return parent

    def _pop(self, s: Span, wall_s: float, cpu_s: float) -> None:
        if s in self._stack:
            self._stack.remove(s)
        payload = {
            "trace_id": self.trace_id,
            "span": s.span_id,
            "parent": s.parent_id,
            "name": s.name,
            "pid": self.pid,
            "t0": round(s._t_epoch, 6),
            "wall_s": round(wall_s, 9),
            "cpu_s": round(cpu_s, 9),
        }
        if s.attrs:
            payload["attrs"] = _json_safe(s.attrs)
        if s.mem_peak_kb is not None:
            payload["mem_peak_kb"] = s.mem_peak_kb
        self.emit("span", payload)

    def emit(self, kind: str, payload) -> None:
        """Durably append one journal-format record."""
        record = {
            "v": JOURNAL_VERSION,
            "kind": kind,
            "payload": payload,
            "sha": payload_sha(kind, payload),
        }
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        with self._lock:
            if self._fd is None:
                return
            os.write(self._fd, line)
            os.fsync(self._fd)

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None


class ObsSession:
    """One observability session: install sinks, run, flush, restore.

    ``trace`` appends spans to a JSONL file, ``metrics`` writes a
    redacted registry snapshot on exit, ``profile`` additionally turns on
    the sampling profiler and per-span memory capture (requires at least
    one sink).  The session opens a ``root`` span covering everything in
    between, so traces always form a single tree.
    """

    def __init__(
        self,
        trace: str | Path | None = None,
        metrics: str | Path | None = None,
        profile: bool = False,
        profile_hz: float = 67.0,
        root: str = "session",
    ):
        if trace is None and metrics is None:
            raise ObservabilityError(
                "an observability session needs a trace and/or metrics sink"
            )
        if profile_hz <= 0:
            raise ObservabilityError(
                f"profile_hz must be positive, got {profile_hz}"
            )
        self.trace_path = Path(trace) if trace is not None else None
        self.metrics_path = Path(metrics) if metrics is not None else None
        self.profile = profile
        self.profile_hz = profile_hz
        self.root = root
        self._saved = None
        self._root_span = None
        self._sampler = None

    def __enter__(self) -> "ObsSession":
        from repro.obs.metrics import MetricsRegistry

        self._saved = (OBS.recorder, OBS.metrics, OBS.profile)
        try:
            if self.trace_path is not None:
                OBS.recorder = TraceRecorder(self.trace_path)
            if self.metrics_path is not None:
                OBS.metrics = MetricsRegistry()
            OBS.profile = self.profile
            if self.profile:
                from repro.obs.profile import SamplingProfiler

                self._sampler = SamplingProfiler(hz=self.profile_hz)
                self._sampler.start()
            self._root_span = span(self.root)
            self._root_span.__enter__()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        profile_data = None
        try:
            if self._sampler is not None:
                profile_data = self._sampler.stop()
            if self._root_span is not None:
                self._root_span.__exit__(exc_type, exc, tb)
            rec = OBS.recorder
            if rec is not None and profile_data is not None:
                rec.emit("profile", profile_data)
            if OBS.metrics is not None and self.metrics_path is not None:
                OBS.metrics.write(self.metrics_path, profile=profile_data)
        finally:
            self._restore()
        return False

    def _restore(self) -> None:
        if OBS.recorder is not None and (
            self._saved is None or OBS.recorder is not self._saved[0]
        ):
            OBS.recorder.close()
        if self._saved is not None:
            OBS.recorder, OBS.metrics, OBS.profile = self._saved
            self._saved = None
