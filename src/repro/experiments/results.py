"""Typed experiment results with JSON/CSV round-trips."""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.errors import ExperimentError
from repro.experiments.configs import SampleConfig

__all__ = ["SampleResult", "ResultSet"]


@dataclass(frozen=True)
class SampleResult:
    """Measurements (modelled) of one sample point."""

    config: SampleConfig
    seconds: float
    freq_ghz: float
    compute_seconds: float
    memory_seconds: float
    llc_misses: float
    package_j: float
    pp0_j: float
    dram_j: float

    @property
    def total_j(self) -> float:
        """Package + DRAM energy (the paper's Fig. 6 axes)."""
        return self.package_j + self.dram_j

    def to_dict(self) -> dict:
        d = asdict(self)
        cfg = d.pop("config")
        d.update({f"config_{k}": v for k, v in cfg.items()})
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SampleResult":
        cfg = SampleConfig(
            scheme=d["config_scheme"],
            size_exp=int(d["config_size_exp"]),
            frequency=(
                d["config_frequency"]
                if isinstance(d["config_frequency"], str)
                and not _is_float(d["config_frequency"])
                else float(d["config_frequency"])
            ),
            thread_config=d["config_thread_config"],
        )
        return cls(
            config=cfg,
            seconds=float(d["seconds"]),
            freq_ghz=float(d["freq_ghz"]),
            compute_seconds=float(d["compute_seconds"]),
            memory_seconds=float(d["memory_seconds"]),
            llc_misses=float(d["llc_misses"]),
            package_j=float(d["package_j"]),
            pp0_j=float(d["pp0_j"]),
            dram_j=float(d["dram_j"]),
        )


def _is_float(s) -> bool:
    try:
        float(s)
        return True
    except (TypeError, ValueError):
        return False


class ResultSet:
    """A collection of sample results with lookup and persistence."""

    def __init__(self, results: list[SampleResult] | None = None):
        self._by_key: dict[str, SampleResult] = {}
        for r in results or []:
            self.add(r)

    def add(self, result: SampleResult) -> None:
        """Insert a result; idempotent for identical re-adds.

        Re-adding the exact same measurements for a key is a no-op (so
        cached reruns and shard merges compose); *different* measurements
        for the same key still raise — that always indicates a bug.
        """
        key = result.config.key
        existing = self._by_key.get(key)
        if existing is not None:
            if existing == result:
                return
            raise ExperimentError(f"conflicting duplicate result for {key}")
        self._by_key[key] = result

    def merge(self, other: "ResultSet") -> "ResultSet":
        """Union ``other`` into this set (idempotent adds) and return self.

        Partial sweeps and resumed runs overlap freely; equal
        results dedupe, conflicting ones raise.
        """
        for r in other:
            self.add(r)
        return self

    def get(self, config: SampleConfig) -> SampleResult:
        try:
            return self._by_key[config.key]
        except KeyError:
            raise ExperimentError(f"no result for {config.key}") from None

    def __len__(self) -> int:
        return len(self._by_key)

    def __iter__(self):
        return iter(self._by_key.values())

    def __contains__(self, config: SampleConfig) -> bool:
        return config.key in self._by_key

    def filter(self, **attrs) -> list[SampleResult]:
        """Results whose config matches all given attributes.

        Example: ``rs.filter(scheme="rm", size_exp=11)``.
        """
        out = []
        for r in self:
            cfg = r.config
            if all(getattr(cfg, k) == v for k, v in attrs.items()):
                out.append(r)
        return out

    # -- persistence ----------------------------------------------------------

    def to_json(self, path: str | Path) -> None:
        """Write all results as a JSON array."""
        data = [r.to_dict() for r in self]
        Path(path).write_text(json.dumps(data, indent=1, sort_keys=True))

    @classmethod
    def from_json(cls, path: str | Path) -> "ResultSet":
        data = json.loads(Path(path).read_text())
        return cls([SampleResult.from_dict(d) for d in data])

    def to_csv(self, path: str | Path) -> None:
        """Write all results as CSV (one row per sample point)."""
        rows = [r.to_dict() for r in self]
        if not rows:
            Path(path).write_text("")
            return
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=sorted(rows[0]))
            writer.writeheader()
            writer.writerows(rows)

    @classmethod
    def from_csv(cls, path: str | Path) -> "ResultSet":
        """Read a :meth:`to_csv` file back (the JSON round-trip's twin).

        CSV carries everything as strings; :meth:`SampleResult.from_dict`
        already distinguishes numeric frequencies from governor names
        (``"2.6"`` vs ``"ondemand"``), so rows feed through it unchanged.
        An empty file (what :meth:`to_csv` writes for an empty set) reads
        back as an empty set.
        """
        if not Path(path).read_text().strip():
            return cls()
        with open(path, newline="") as fh:
            return cls([SampleResult.from_dict(row) for row in csv.DictReader(fh)])
