"""Schema tests of the ledger benchmark: ``pytest benchmarks/ledger``.

Two smoke runs (one untraced, one traced) check that every metric
``BENCHMARK.json`` declares is printed with its unit, that the results
record the environment, and that every merged trace renders through
``sfc-repro trace-report``.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_ledger(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def printed(stdout: str) -> dict:
    """``{(workload, metric): unit}`` of the printed metric lines."""
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] in WORKLOADS:
            rows[(parts[0], parts[1])] = parts[3]
    return rows


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "results.json"
    proc = run_ledger("--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(out.read_text())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ledger-trace")
    proc = run_ledger("--trace", "1", "--trace-dir", str(tmp / "traces"),
                      "--out", str(tmp / "results.json"))
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads((tmp / "results.json").read_text())


def test_names_and_units_are_well_formed():
    for w in SPEC["workloads"]:
        assert NAME.match(w["name"]) and set(w) == {"name", "why"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]), m["name"]
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m["unit"]
        assert m["better"] in ("higher", "lower")
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25, m["name"]


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_every_declared_metric_is_printed_with_its_unit(kind, untraced, traced):
    proc, results = untraced if kind == "end_to_end" else traced
    rows = printed(proc.stdout)
    for workload in WORKLOADS:
        for m in SPEC[kind]:
            assert rows.get((workload, m["name"])) == m["unit"], (workload, m)
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] >= 1
    for workload in WORKLOADS:
        for m in SPEC[kind]:
            entry = summary["metrics"][f"{workload}.{m['name']}"]
            assert entry["unit"] == m["unit"]
            assert isinstance(entry["value"], (int, float))
            assert NAME.match(f"{workload}.{m['name']}")
    assert results["summary"] == summary


def test_results_record_the_environment(untraced):
    env = untraced[1]["env"]
    assert env["cpu_count"] == os.cpu_count()
    assert env["seed"] == 1107
    for key in ("git_sha", "python", "numpy", "backend"):
        assert env[key], key


def test_traced_run_renders_in_trace_report(traced):
    _, results = traced
    for workload in WORKLOADS:
        run = results["workloads"][workload]
        assert run["per_layer"]["unattributed_share"] < 1.0
        assert run["per_layer"]["trace_overhead"] > 0
        report = subprocess.run(
            [sys.executable, "-m", "repro.cli", "trace-report",
             run["trace_file"]],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert report.returncode == 0, report.stderr
        assert "hotspots by self time" in report.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_ledger("--workload", "paper-report", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
