"""Metrics registry: counters, gauges and histograms with labels.

A registry is installed into :data:`repro.obs.core.OBS` by an
:class:`~repro.obs.core.ObsSession` (``--metrics FILE``); instrumented
code reaches it through the free functions :func:`repro.obs.count` /
:func:`repro.obs.gauge` / :func:`repro.obs.observe`, which are no-ops
when no registry is installed.

Series are keyed Prometheus-style — ``name{label=value,...}`` with
labels sorted — so snapshots are deterministic.  Snapshots written to
disk pass through :func:`repro.obs.redact.redact` so they never contain
machine-local absolute paths (golden comparisons stay portable).
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

from repro.obs.redact import redact
from repro.robust.fsutil import durable_write

__all__ = ["Histogram", "MetricsRegistry", "SNAPSHOT_VERSION"]

SNAPSHOT_VERSION = 1


def series_key(name: str, labels: dict) -> str:
    """Render ``name{k=v,...}`` with sorted labels (bare name if none)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Histogram:
    """Power-of-two bucketed distribution with exact count/sum/min/max."""

    __slots__ = ("count", "sum", "min", "max", "buckets")

    def __init__(self):
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None
        # bucket exponent -> count; value v lands in bucket
        # ceil(log2(v)) for v > 1, bucket 0 for v <= 1.
        self.buckets: dict[int, int] = {}

    def observe(self, value) -> None:
        v = float(value)
        self.count += 1
        self.sum += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v
        b = 0
        if v > 1.0:
            b = max(0, (abs(int(v)) - 1).bit_length())
        self.buckets[b] = self.buckets.get(b, 0) + 1

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            # "le_2^k" upper-bound labels, ascending
            "buckets": {
                f"le_2^{b}": self.buckets[b] for b in sorted(self.buckets)
            },
        }

    def export(self) -> dict:
        """Raw (unrendered) state, suitable for cross-process merging."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": dict(self.buckets),
        }

    def merge(self, exported: dict) -> None:
        """Fold an :meth:`export` payload from another process in."""
        self.count += exported["count"]
        self.sum += exported["sum"]
        for bound in ("min", "max"):
            other = exported[bound]
            if other is None:
                continue
            mine = getattr(self, bound)
            if mine is None:
                setattr(self, bound, other)
            else:
                pick = min if bound == "min" else max
                setattr(self, bound, pick(mine, other))
        for b, c in exported["buckets"].items():
            b = int(b)
            self.buckets[b] = self.buckets.get(b, 0) + c


class MetricsRegistry:
    """Thread-safe registry of counters, gauges and histograms."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    def count(self, name: str, value: int | float = 1, **labels) -> None:
        key = series_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def gauge(self, name: str, value, **labels) -> None:
        key = series_key(name, labels)
        with self._lock:
            self._gauges[key] = value

    def observe(self, name: str, value, **labels) -> None:
        key = series_key(name, labels)
        with self._lock:
            h = self._histograms.get(key)
            if h is None:
                h = self._histograms[key] = Histogram()
            h.observe(value)

    def counter_value(self, name: str, **labels) -> float:
        """Current value of one counter series (0 if never incremented)."""
        with self._lock:
            return self._counters.get(series_key(name, labels), 0)

    def snapshot(self) -> dict:
        """Deterministic plain-dict snapshot (sorted series keys)."""
        with self._lock:
            return {
                "v": SNAPSHOT_VERSION,
                "counters": {k: self._counters[k] for k in sorted(self._counters)},
                "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
                "histograms": {
                    k: self._histograms[k].snapshot()
                    for k in sorted(self._histograms)
                },
            }

    def export(self) -> dict:
        """Picklable raw state for shipping across a process boundary.

        Unlike :meth:`snapshot` this keeps histogram buckets in their
        raw integer-exponent form so :meth:`merge` can recombine them
        exactly (worker registries fold into the parent's without loss).
        """
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    k: h.export() for k, h in self._histograms.items()
                },
            }

    def merge(self, exported: dict) -> None:
        """Fold an :meth:`export` payload into this registry.

        Counters add; gauges take the incoming value (last writer wins,
        matching single-process semantics); histograms merge exactly.
        """
        with self._lock:
            for k, v in exported["counters"].items():
                self._counters[k] = self._counters.get(k, 0) + v
            self._gauges.update(exported["gauges"])
            for k, payload in exported["histograms"].items():
                h = self._histograms.get(k)
                if h is None:
                    h = self._histograms[k] = Histogram()
                h.merge(payload)

    def write(self, path: str | Path, profile: dict | None = None) -> None:
        """Write a redacted JSON snapshot (atomic and durable via rename)."""
        snap = self.snapshot()
        if profile is not None:
            snap["profile"] = profile
        snap = redact(snap)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        durable_write(path, json.dumps(snap, indent=2, sort_keys=True) + "\n")
