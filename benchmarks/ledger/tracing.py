"""Runtime span tracer for the ledger's traced runs.

The ledger times each layer of ``repro`` from the outside: it wraps the
layers' public functions at runtime and records one span per call.
Nothing under ``src/`` changes, and untraced runs never import this
module's wrappers, so the gated numbers carry no tracing cost.

* :data:`LAYERS` names every wrapped function, the span name it records
  under (the layer) and how to count the work it did.
* :func:`install` wraps those functions and rebinds every module-level
  alias of them across the loaded ``repro.*`` modules.  Forked children
  inherit the wrappers; spawned children (and the advisor server) get
  them from ``hook/sitecustomize.py``, which a traced run puts on
  ``PYTHONPATH`` together with :data:`ENV_DIR`.
* Spans live in memory per thread.  When a thread's outermost span ends,
  it and its descendants are appended to ``<dir>/spans-<pid>.jsonl`` (no
  fsync): a pool worker terminated while idle loses nothing.
* :func:`load_spans`, :func:`write_journal` and :func:`layer_metrics`
  merge the per-process files, write them in the ``repro.obs`` journal
  format (so ``sfc-repro trace-report`` renders them) and reduce them to
  per-layer numbers.  Self time is a span's duration minus that of its
  direct children in the same process — the rule ``trace-report`` uses.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "ENV_DIR",
    "LAYERS",
    "Tracer",
    "install",
    "layer_metrics",
    "load_spans",
    "span",
    "write_journal",
]

#: Directory the traced processes write their span files to; setting it
#: is what turns tracing on in ``hook/sitecustomize.py``.
ENV_DIR = "LEDGER_TRACE_DIR"


def _size(value) -> int:
    return int(getattr(value, "size", 1))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(path) -> int:
    try:
        return Path(path).stat().st_size
    except (OSError, TypeError):
        return 0


#: (module, attribute path, span name, work counter, opaque).  A counter
#: maps ``(args, kwargs, result)`` to span attributes.  An opaque span
#: records none of the wrapped calls made inside it: the IPC codec calls
#: the IR frame codec, and that time belongs to IPC, not to the IR layer.
LAYERS = (
    ("repro.curves.base", "SpaceFillingCurve.encode", "curves.encode",
     lambda a, k, r: {"elems": _size(r)}, False),
    ("repro.curves.hilbert", "hilbert_encode_batch", "curves.encode",
     lambda a, k, r: {"elems": _size(r)}, False),
    ("repro.trace.matmul_trace", "naive_matmul_trace", "trace.generate",
     None, False),
    ("repro.trace.ir", "encode_frame", "trace.ir.encode",
     lambda a, k, r: {"bytes": len(r)}, False),
    ("repro.trace.ir", "TraceIRWriter.append", "trace.ir.write", None, False),
    ("repro.trace.ir", "TraceIRWriter.close", "trace.ir.publish",
     lambda a, k, r: {"bytes": _file_bytes(r)}, False),
    ("repro.trace.ir", "decode_frame", "trace.ir.decode",
     lambda a, k, r: {"accesses": len(r[0])}, False),
    ("repro.sim.cache", "Cache.access_lines", "sim.replay",
     lambda a, k, r: {"accesses": len(_arg(a, k, 1, "lines"))}, False),
    ("repro.sim.fastcache", "FastCache.access_lines", "sim.replay",
     lambda a, k, r: {"accesses": len(_arg(a, k, 1, "lines"))}, False),
    ("repro.sim.parallel", "run_parallel", "sim.parallel.wait", None, False),
    ("repro.sim.parallel", "pack_miss_stream", "sim.parallel.ipc",
     lambda a, k, r: {"bytes": len(r)}, True),
    ("repro.sim.parallel", "unpack_miss_stream", "sim.parallel.ipc",
     None, True),
    ("repro.sim.analytic", "PerformanceModel.predict", "sim.analytic",
     None, False),
    ("repro.perf.sampling", "sample_rapl_counter", "perf.sampling",
     lambda a, k, r: {"ticks": len(r[0])}, False),
    ("repro.perf.sampling", "power_from_samples", "perf.sampling",
     None, False),
    ("repro.experiments.sweep", "SweepEngine.run", "experiments.sweep.run",
     None, False),
    ("repro.experiments.sweep", "SweepCache.get",
     "experiments.sweep.store_read", None, False),
    ("repro.experiments.sweep", "SweepCache.get_many",
     "experiments.sweep.store_read", None, False),
    ("repro.experiments.sweep", "SweepCache.put",
     "experiments.sweep.store_write", None, False),
    ("repro.experiments.sweep", "SweepCache.put_many",
     "experiments.sweep.store_write", None, False),
    ("repro.experiments.report", "generate_report", "experiments.render",
     None, False),
    ("repro.serve.schemas", "validate_advise_request", "serve.validate",
     None, False),
    ("repro.serve.state", "ServiceState.lookup", "serve.store", None, False),
    ("repro.serve.state", "ServiceState.store", "serve.store", None, False),
    ("repro.serve.workers", "EvalWorkerPool.evaluate", "serve.pool_wait",
     None, False),
    ("repro.serve.advisor", "advise_payload", "serve.advise", None, False),
)

#: Modules whose ``render_*`` functions also record as ``experiments.render``.
RENDER_MODULES = (
    "repro.experiments.tables",
    "repro.experiments.figures",
    "repro.experiments.energy_analysis",
    "repro.experiments.scaling_study",
    "repro.experiments.mrc_study",
    "repro.experiments.sensitivity",
)

#: Spans the benchmark opens around its own timed operations.
BENCH_PREFIX = "bench."


class Tracer:
    """Per-process span recorder; one instance per traced process."""

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # Runs again in a forked child: the parent's open spans, buffers
        # and file handle are not the child's.
        self.pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        self._fh = None
        self._epoch = time.time() - time.perf_counter()

    def _thread(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.done = []
            st.opaque = 0
        return st

    def enter(self, name: str, opaque: bool = False):
        """Open a span; returns ``None`` inside an opaque span."""
        st = self._thread()
        if st.opaque:
            return None
        parent = st.stack[-1][0] if st.stack else None
        rec = [f"{self.pid:x}.{next(self._seq)}", parent, name,
               time.perf_counter(), time.process_time(), opaque]
        st.stack.append(rec)
        if opaque:
            st.opaque += 1
        return rec

    def exit(self, rec, attrs: dict | None = None) -> None:
        wall = time.perf_counter() - rec[3]
        cpu = time.process_time() - rec[4]
        st = self._thread()
        if rec[5]:
            st.opaque -= 1
        st.stack.remove(rec)
        st.done.append({
            "span": rec[0], "parent": rec[1], "name": rec[2], "pid": self.pid,
            "t0": round(self._epoch + rec[3], 6), "wall_s": wall,
            "cpu_s": cpu, "attrs": attrs or {},
        })
        if not st.stack:
            self._flush(st)

    def _flush(self, st) -> None:
        lines = "".join(json.dumps(s, separators=(",", ":")) + "\n"
                        for s in st.done)
        st.done = []
        with self._lock:
            if self._fh is None:
                self.out_dir.mkdir(parents=True, exist_ok=True)
                self._fh = open(self.out_dir / f"spans-{self.pid}.jsonl", "a")
            self._fh.write(lines)
            self._fh.flush()



_TRACER: Tracer | None = None


@contextmanager
def span(name: str):
    """A benchmark-side span; a no-op when tracing is off."""
    rec = _TRACER.enter(name) if _TRACER is not None else None
    try:
        yield
    finally:
        if rec is not None:
            _TRACER.exit(rec)


def _wrap(fn, name, counter, opaque):
    tracer = _TRACER

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = tracer.enter(name, opaque)
        if rec is None:
            return fn(*args, **kwargs)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.exit(rec, {"error": type(exc).__name__})
            raise
        tracer.exit(rec, counter(args, kwargs, out) if counter else None)
        return out

    wrapper.__ledger_wrapped__ = fn
    return wrapper


class _TracedChunks:
    """Iterator proxy timing each ``next()`` of a trace generator."""

    __slots__ = ("_inner", "_name")

    def __init__(self, inner, name):
        self._inner = inner
        self._name = name

    def __iter__(self):
        return self

    def __next__(self):
        rec = _TRACER.enter(self._name)
        if rec is None:
            return next(self._inner)
        try:
            chunk = next(self._inner)
        except StopIteration:
            _TRACER.exit(rec, {"accesses": 0})
            raise
        except BaseException as exc:
            _TRACER.exit(rec, {"error": type(exc).__name__})
            raise
        _TRACER.exit(rec, {"accesses": len(chunk.addr)})
        return chunk


def _wrap_generator(fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _TracedChunks(fn(*args, **kwargs), name)

    wrapper.__ledger_wrapped__ = fn
    return wrapper


def _targets():
    """Yield ``(owner, attr, original, span name, counter, opaque)``."""
    for module, path, name, counter, opaque in LAYERS:
        mod = importlib.import_module(module)
        owner_name, _, attr = path.rpartition(".")
        if not owner_name:
            yield mod, attr, getattr(mod, attr), name, counter, opaque
            continue
        base = getattr(mod, owner_name)
        # Subclasses overriding the method are timed under the same layer.
        pending, seen = [base], set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            if attr in vars(cls):
                yield cls, attr, vars(cls)[attr], name, counter, opaque
    for module in RENDER_MODULES:
        mod = importlib.import_module(module)
        for attr, value in list(vars(mod).items()):
            if (attr.startswith("render_") and callable(value)
                    and getattr(value, "__module__", None) == module):
                yield mod, attr, value, "experiments.render", None, False


def install(out_dir: str | Path) -> Tracer:
    """Wrap every layer function once per process; returns the tracer."""
    global _TRACER
    if _TRACER is not None:
        return _TRACER
    _TRACER = Tracer(out_dir)
    wrapped = {}
    for owner, attr, original, name, counter, opaque in list(_targets()):
        if hasattr(original, "__ledger_wrapped__"):
            continue
        if id(original) not in wrapped:
            wrapped[id(original)] = (
                _wrap_generator(original, name)
                if name == "trace.generate"
                else _wrap(original, name, counter, opaque)
            )
        setattr(owner, attr, wrapped[id(original)])
    # Rebind aliases (``from x import f``) in every loaded repro module.
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if callable(value) and id(value) in wrapped:
                setattr(mod, attr, wrapped[id(value)])
    return _TRACER


def install_from_env() -> None:
    out_dir = os.environ.get(ENV_DIR)
    if out_dir:
        install(out_dir)


# -- merging and aggregation ----------------------------------------------------


def load_spans(trace_dir: str | Path) -> list[dict]:
    """Every span recorded under ``trace_dir``, ordered by start time."""
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            for line in fh:
                if line.endswith("\n"):  # a torn last line is dropped
                    spans.append(json.loads(line))
    spans.sort(key=lambda s: s["t0"])
    return spans


def write_journal(spans: list[dict], path: str | Path, trace_id: str) -> Path:
    """Write spans as a ``repro.obs`` journal that ``trace-report`` reads."""
    from repro.robust.journal import JOURNAL_VERSION, payload_sha

    def record(kind, payload):
        return json.dumps({"v": JOURNAL_VERSION, "kind": kind,
                           "payload": payload,
                           "sha": payload_sha(kind, payload)},
                          sort_keys=True) + "\n"

    pids = sorted({s["pid"] for s in spans})
    out = [record("trace_begin", {
        "trace_id": trace_id, "pid": pids[0] if pids else os.getpid(),
        "t0": spans[0]["t0"] if spans else time.time(),
    })]
    for s in spans:
        payload = {k: s[k] for k in ("span", "parent", "name", "pid", "t0")}
        payload.update(trace_id=trace_id, wall_s=round(s["wall_s"], 9),
                       cpu_s=round(s["cpu_s"], 9))
        if s["attrs"]:
            payload["attrs"] = s["attrs"]
        out.append(record("span", payload))
    path = Path(path)
    path.write_text("".join(out))
    return path


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus its direct children's durations."""
    child_wall: dict[str, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_wall[s["parent"]] = child_wall.get(s["parent"], 0.0) + s["wall_s"]
    return {s["span"]: max(0.0, s["wall_s"] - child_wall.get(s["span"], 0.0))
            for s in spans}


def layer_metrics(spans: list[dict], serving_pid: int,
                  windows: list[tuple[float, float]] | None = None,
                  timed_s: float | None = None) -> dict[str, dict]:
    """Per-layer totals: ``{span name: {"self_s", "spans", <attr sums>}}``.

    Only spans starting inside a timed window count, in any process.  The
    windows default to the ``bench.*`` spans of ``serving_pid`` (the
    process doing the workload's work), and ``timed_s`` to their total
    length.  The pseudo-layer ``"unattributed"`` is the part of
    ``timed_s`` that no layer span of ``serving_pid`` covers.
    """
    if windows is None:
        windows = [(s["t0"], s["t0"] + s["wall_s"]) for s in spans
                   if s["pid"] == serving_pid
                   and s["name"].startswith(BENCH_PREFIX)]
    if timed_s is None:
        timed_s = sum(t1 - t0 for t0, t1 in windows)
    windows = sorted(windows)
    starts = [w[0] for w in windows]

    def timed(t: float) -> bool:
        i = bisect.bisect_right(starts, t) - 1
        return i >= 0 and t <= windows[i][1]

    selfs = self_times(spans)
    by_id = {s["span"]: s for s in spans}
    layers: dict[str, dict] = {}

    def row_of(name: str) -> dict:
        return layers.setdefault(name, {"self_s": 0.0, "spans": 0, "entries": 0})

    attributed = 0.0
    for s in spans:
        name = s["name"]
        if name.startswith(BENCH_PREFIX) or not timed(s["t0"]):
            continue
        row = row_of(name)
        row["self_s"] += selfs[s["span"]]
        row["spans"] += 1
        parent = by_id.get(s["parent"])
        if parent is None or parent["name"] != name:
            row["entries"] += 1  # an entry into the layer from outside it
        for key, value in s["attrs"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                row[key] = row.get(key, 0) + value
        if name == "trace.ir.encode" and parent and parent["name"] == "trace.ir.write":
            # The bytes an IR write appends are the frames it encodes.
            write = row_of("trace.ir.write")
            write["bytes"] = write.get("bytes", 0) + s["attrs"].get("bytes", 0)
        if s["pid"] == serving_pid:
            attributed += selfs[s["span"]]
    layers["unattributed"] = {"self_s": max(0.0, timed_s - attributed),
                              "timed_s": timed_s}
    return layers
