"""Which path replays the caches, and the C kernel against its oracle.

:func:`repro._clib.load` decides whether a level replays on the C
kernel; :func:`repro.sim.backends.resolve_backend` only names that
decision, and ``"auto"`` is the only name it takes.  The kernel's
Python transcription (``tests/sim/kernel_oracle.py``) is the oracle the
C kernel must match, and it is validated against the reference loop on
every host — the C kernel's legs run wherever a system compiler exists.
"""

import hashlib
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro import _clib
from repro.cli import main
from repro.errors import SimulationError
from repro.sim import Cache, CacheSpec, FastCache, make_cache
from repro.sim.backends import resolve_backend
from repro.sim.fastcache import FULLY_ASSOC_KERNEL_MAX_WAYS

from tests.conftest import HAS_CLIB, clib_unavailable
from tests.sim.kernel_oracle import oracle_kernel_cache, python_stream_replay


class TestRegistry:
    """What is left of the backend registry: ``resolve_backend("auto")``."""

    def test_unknown_backend_raises(self):
        # Every name but "auto" is unknown now, the old ones included,
        # and no level takes a backend at all.
        for name in ("python", "c", "numba", "turbo", None):
            with pytest.raises(SimulationError, match="backend"):
                resolve_backend(name)
        spec = CacheSpec("t", 1024, 64, 4)
        for build in (FastCache, make_cache):
            with pytest.raises(TypeError, match="backend"):
                build(spec, backend="c")

    def test_cli_rejects_unknown_backend(self, capsys):
        # No study has a --backend flag any more, whatever it names.
        for command in ("cachegrind", "mrc", "query"):
            for name in ("numba", "c", "python", "auto"):
                with pytest.raises(SystemExit) as exc:
                    main([command, "--backend", name])
                assert exc.value.code == 2
                err = capsys.readouterr().err
                assert f"unrecognized arguments: --backend {name}" in err

    def test_auto_resolves_concrete_and_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend("auto") == ("c" if HAS_CLIB else "python")

    def test_only_auto_loads_the_library(self, monkeypatch):
        calls = []
        real = _clib.load

        def spy():
            calls.append(1)
            return real()

        monkeypatch.setattr(_clib, "load", spy)
        for name in ("turbo", "python", "c"):
            with pytest.raises(SimulationError):
                resolve_backend(name)
        assert calls == []
        resolve_backend("auto")
        assert len(calls) == 1


#: Resolve ``argv[1]`` in a fresh process; print the result (or the
#: exception's type) and how many library artifacts ``argv[2]`` holds.
_RESOLVE_AND_COUNT = """
import pathlib, sys
from repro.sim.backends import resolve_backend
try:
    print(resolve_backend(sys.argv[1]))
except Exception as exc:
    print(type(exc).__name__)
print(len(list(pathlib.Path(sys.argv[2]).rglob("*.so"))))
"""


@pytest.mark.parametrize("request_, resolved, artifacts", [
    pytest.param("auto", "c", 1, marks=pytest.mark.skipif(
        not HAS_CLIB, reason="no C toolchain")),
    ("python", "SimulationError", 0),
    ("c", "SimulationError", 0),
    ("turbo", "SimulationError", 0),
])
def test_fresh_process_builds_only_for_auto(tmp_path, request_, resolved,
                                            artifacts):
    # An empty cache root: resolving "auto" leaves the library on disk
    # (the ledger's prepare step compiles it that way, outside every
    # timing); every other name raises and leaves nothing.
    out = subprocess.run(
        [sys.executable, "-c", _RESOLVE_AND_COUNT, request_, str(tmp_path)],
        env={**os.environ, "XDG_CACHE_HOME": str(tmp_path)},
        capture_output=True, text=True, timeout=180, check=True,
    ).stdout.split()
    assert out == [resolved, str(artifacts)]


@pytest.mark.skipif(not HAS_CLIB, reason="no C toolchain")
def test_empty_cached_artifact_is_rebuilt(tmp_path, monkeypatch):
    # What a crash between an unsynced build and its rename could leave:
    # the library must not be reported unavailable for good.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_clib, "_state", None)
    artifact = _clib._artifact()
    artifact.parent.mkdir(parents=True)
    artifact.write_bytes(b"")
    assert _clib.load() is not None, _clib.unavailable_reason()
    assert artifact.stat().st_size > 0
    assert _clib.delta_width(np.arange(0, 30, 3, dtype=np.uint64)) == 1


#: Resolve ``"auto"`` in a fresh process and print the result.
_RESOLVE_AUTO = (
    "from repro.sim.backends import resolve_backend; "
    "print(resolve_backend('auto'))"
)


@pytest.mark.skipif(not HAS_CLIB, reason="no C toolchain")
def test_truncated_cached_artifact_is_rebuilt_not_loaded(tmp_path):
    # dlopen of a library truncated to a non-empty prefix dies with
    # SIGBUS instead of raising, so the check must run in a process that
    # may die, and before the load.
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path)}

    def resolve():
        return subprocess.run(
            [sys.executable, "-c", _RESOLVE_AUTO], env=env,
            capture_output=True, text=True, timeout=180,
        )

    assert resolve().stdout.split() == ["c"]
    (artifact,) = tmp_path.rglob("clib-*.so")
    with open(artifact, "r+b") as fh:
        fh.truncate(4096)
    out = resolve()
    assert out.returncode == 0, (out.returncode, out.stderr)
    assert out.stdout.split() == ["c"]
    digest = artifact.with_name(artifact.name + ".sha256").read_text()
    assert hashlib.sha256(artifact.read_bytes()).hexdigest() == digest


def test_broken_toolchain_reason_keeps_each_compiler_error(tmp_path, monkeypatch):
    # A cc that runs and fails must not read like a missing compiler.
    cc = tmp_path / "cc"
    cc.write_text(
        "#!/bin/sh\n"
        "echo 'fatal error: stdint.h: No such file or directory' >&2\n"
        "exit 1\n"
    )
    cc.chmod(0o755)
    bin_dir = os.path.dirname(sys.executable)
    if shutil.which("gcc", path=bin_dir) or shutil.which("clang", path=bin_dir):
        pytest.skip("the interpreter's bin dir holds a real compiler")
    monkeypatch.setenv("PATH", os.pathsep.join([str(tmp_path), bin_dir]))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_clib, "_state", None)
    assert _clib.load() is None
    reason = _clib.unavailable_reason()
    assert "stdint.h" in reason
    assert "gcc" in reason and "clang" in reason


class TestFallback:
    """Without the library: the path a host with no compiler runs."""

    def test_auto_never_warns_when_degraded(self, no_clib):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend("auto") == "python"

    def test_fastcache_refuses_set_associative_level(self, no_clib):
        with pytest.raises(SimulationError, match="C library"):
            FastCache(CacheSpec("t", 1024, 64, 4))
        # make_cache never asks for one: the reference loop replays it.
        assert type(make_cache(CacheSpec("t", 1024, 64, 4))) is Cache
        # One set takes the Mattson pass, at any width.
        fc = FastCache(CacheSpec("t", 8 * 64, 64, 8))
        fc.access_lines(np.arange(16, dtype=np.uint64), np.zeros(16, bool))
        assert fc.stats.accesses == 16 and fc.stats.misses == 16
        assert fc.resident_lines == 8


def _replay_setup(seed, n_sets=16, assoc=4, n=3000):
    """A random stream-replay problem: (set_mask, lines, is_write, tags)."""
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, 6 * n_sets * assoc, n).astype(np.uint64)
    is_write = (rng.random(n) < 0.4).astype(np.uint8)
    tags = rng.integers(0, 256, n).astype(np.uint8)
    return n_sets, assoc, np.uint64(n_sets - 1), lines, is_write, tags


#: The C kernel's fixed-associativity copies (8, 16, 20 ways) and three
#: ways that take its generic loop, direct-mapped among them.
C_KERNEL_WAYS = (1, 4, 8, 12, 16, 20)


def _one_set_setup(seed, assoc=FULLY_ASSOC_KERNEL_MAX_WAYS):
    """One set (``set_mask`` 0), by default at the kernel threshold
    associativity.

    A pass over 64 lines more than the set holds fills it and evicts,
    then random re-accesses hit at every depth or miss on the evicted.
    The Python kernel pays O(assoc) per miss, so misses are few.
    """
    rng = np.random.default_rng(seed)
    universe = assoc + 64
    lines = np.concatenate([
        rng.permutation(universe), rng.integers(0, universe, 256)
    ]).astype(np.uint64)
    is_write = (rng.random(len(lines)) < 0.4).astype(np.uint8)
    tags = rng.integers(0, 256, len(lines)).astype(np.uint8)
    return 1, assoc, np.uint64(0), lines, is_write, tags


class TestKernelParity:
    """The C kernel against the pure-Python kernel it transcribes."""

    def _run(self, kernel, problem):
        n_sets, assoc, set_mask, lines, is_write, tags = problem
        n = len(lines)
        slots = np.full((n_sets, assoc), np.uint64(0xFFFFFFFFFFFFFFFF))
        dirty = np.zeros((n_sets, assoc), dtype=np.uint8)
        miss_lines = np.zeros(n, dtype=np.uint64)
        miss_flags = np.zeros(n, dtype=np.uint8)
        miss_tags = np.zeros(n, dtype=np.uint8)
        counters = [np.zeros(256, dtype=np.int64) for _ in range(3)]
        counts = kernel(
            slots, dirty, set_mask, lines, is_write, tags,
            miss_lines, miss_flags, miss_tags, *counters,
        )
        n_miss = int(counts[0])
        # The slack past n_miss stays untouched.
        assert not miss_lines[n_miss:].any() and not miss_tags[n_miss:].any()
        return (
            slots, dirty, miss_lines[:n_miss], miss_flags[:n_miss],
            miss_tags[:n_miss], *counters, [int(c) for c in counts],
        )

    def _assert_parity(self, kernel, problem):
        got_py = self._run(python_stream_replay, problem)
        got = self._run(kernel, problem)
        n_miss, evictions, _, writes, write_misses = got_py[-1]
        assert evictions > 0 and 0 < write_misses < n_miss and writes > 0
        for a, b in zip(got_py, got):
            np.testing.assert_array_equal(a, b, err_msg=f"{problem[1]} ways")

    def test_python_kernel_counts_the_chunk(self):
        # The kernel's own accounting against the chunk it was given.
        problem = _replay_setup(4)
        _, _, _, lines, is_write, tags = problem
        (_, _, miss_lines, miss_flags, miss_tags, tag_acc, tag_rm, tag_wm,
         counts) = self._run(python_stream_replay, problem)
        n_miss, _, _, writes, write_misses = counts
        assert writes == int(is_write.sum())
        assert write_misses == int(miss_flags.sum())
        np.testing.assert_array_equal(tag_acc, np.bincount(tags, minlength=256))
        flags = miss_flags.astype(bool)
        np.testing.assert_array_equal(
            tag_rm, np.bincount(miss_tags[~flags], minlength=256)
        )
        np.testing.assert_array_equal(
            tag_wm, np.bincount(miss_tags[flags], minlength=256)
        )
        assert tag_rm.sum() + tag_wm.sum() == n_miss == len(miss_lines)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_python_kernel_matches_reference(self, seed):
        # The Python kernel, through FastCache's own kernel path, against
        # the reference loop, including the carried MRU stacks and the
        # per-tag counters.
        spec = CacheSpec("t", 16 * 4 * 64, 64, 4)
        rng = np.random.default_rng(seed)
        lines = rng.integers(0, 400, 5000).astype(np.uint64)
        w = rng.random(5000) < 0.3
        tags = rng.integers(0, 256, 5000).astype(np.uint8)
        ref = Cache(spec)
        py = oracle_kernel_cache(spec)
        r = ref.access_lines(lines, w, tags)
        f = py.access_lines(lines, w, tags)
        for a, b in zip(r, f):
            np.testing.assert_array_equal(a, b)
        assert ref.stats.misses == py.stats.misses
        assert ref.stats.evictions == py.stats.evictions
        assert ref.stats.writebacks == py.stats.writebacks
        for field in ("tag_accesses", "tag_read_misses", "tag_write_misses"):
            np.testing.assert_array_equal(
                getattr(ref.stats, field), getattr(py.stats, field)
            )
        got, expect = py.state_snapshot(), ref.state_snapshot()
        for row, want in zip(got["stack"], expect["sets"]):
            assert [int(v) for v in row[: len(want)]] == want
        assert {int(v) for v in got["stack"][got["dirty"]]} == expect["dirty"]

    @pytest.mark.skipif(not HAS_CLIB, reason="no C toolchain")
    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_c_kernel_matches_python_kernel(self, seed):
        # 16 sets at every fixed-associativity copy and three generic ways.
        for assoc in C_KERNEL_WAYS:
            self._assert_parity(
                _clib.stream_replay, _replay_setup(seed, assoc=assoc)
            )

    @pytest.mark.skipif(not HAS_CLIB, reason="no C toolchain")
    def test_c_kernel_one_set_at_threshold(self):
        # One set at the threshold, at every fixed-associativity copy and
        # at three generic ways.
        for assoc in (FULLY_ASSOC_KERNEL_MAX_WAYS,) + C_KERNEL_WAYS:
            self._assert_parity(
                _clib.stream_replay, _one_set_setup(8, assoc=assoc)
            )

    @pytest.mark.skipif(not HAS_CLIB, reason="no C toolchain")
    @pytest.mark.parametrize("short", ["miss_lines", "tag_accesses", "tags"])
    def test_c_adapter_rejects_short_arrays(self, short):
        # The C loop writes up to n misses and indexes counters by tag;
        # arrays too short for that are refused before any pointer moves.
        _, _, set_mask, lines, is_write, tags = _replay_setup(1, n=64)
        args = {
            "slots": np.full((16, 4), np.uint64(0xFFFFFFFFFFFFFFFF)),
            "dirty": np.zeros((16, 4), dtype=np.uint8),
            "set_mask": set_mask, "lines": lines, "is_write": is_write,
            "tags": tags,
            "miss_lines": np.zeros(64, dtype=np.uint64),
            "miss_flags": np.zeros(64, dtype=np.uint8),
            "miss_tags": np.zeros(64, dtype=np.uint8),
            "tag_accesses": np.zeros(256, dtype=np.int64),
            "tag_read_misses": np.zeros(256, dtype=np.int64),
            "tag_write_misses": np.zeros(256, dtype=np.int64),
        }
        args[short] = args[short][:-1]
        with pytest.raises(ValueError, match="contract"):
            _clib.stream_replay(**args)
        assert not args["tag_accesses"].any()

    @pytest.mark.skipif(not HAS_CLIB, reason="no C toolchain")
    @pytest.mark.parametrize("case", [
        "unpack_short_src", "unpack_short_out", "unpack_width_9",
        "unpack_width_-1", "pack_short_out", "pack_width_9",
    ])
    def test_c_codec_adapters_reject_overruns(self, case):
        # The IR codec's loops read (n - 1) * wb source bytes and write n
        # lines, or write (n - 1) * wb bytes; sizes that would take them
        # past an array, or a width outside 0..8, are refused before any
        # pointer moves.
        lines = np.arange(0, 3 * 64, 3, dtype=np.uint64)
        n, wb = len(lines), 1
        packed = np.zeros((n - 1) * wb, dtype=np.uint8)
        out = np.zeros(n, dtype=np.uint64)
        calls = {
            "unpack_short_src": lambda: _clib.unpack_deltas(
                packed[:-1], n, wb, 0, out),
            "unpack_short_out": lambda: _clib.unpack_deltas(
                packed, n, wb, 0, out[:-1]),
            "unpack_width_9": lambda: _clib.unpack_deltas(
                np.zeros(9 * n, np.uint8), n, 9, 0, out),
            "unpack_width_-1": lambda: _clib.unpack_deltas(
                packed, n, -1, 0, out),
            "pack_short_out": lambda: _clib.pack_deltas(
                lines, wb, packed[:-1]),
            "pack_width_9": lambda: _clib.pack_deltas(
                lines, 9, np.zeros(9 * n, np.uint8)),
        }
        with pytest.raises(ValueError, match="contract"):
            calls[case]()
        assert not packed.any() and not out.any()
        # The same sizes, in bounds, round-trip.
        assert _clib.delta_width(lines) == wb
        _clib.pack_deltas(lines, wb, packed)
        _clib.unpack_deltas(packed, n, wb, 0, out)
        np.testing.assert_array_equal(out, lines)


class TestOracleThroughBackends:
    """End-to-end: FastCache on each kernel — C where it loads, its
    Python oracle everywhere — and, at one set, on the Mattson pass a
    host without the library runs, against the reference Cache."""

    @pytest.mark.parametrize("assoc,n_sets", [(1, 8), (4, 16), (16, 1)])
    def test_against_reference(self, assoc, n_sets):
        spec = CacheSpec("t", n_sets * assoc * 64, 64, assoc)
        rng = np.random.default_rng(assoc * 100 + n_sets)
        chunks = []
        for _ in range(3):
            n = int(rng.integers(50, 600))
            chunks.append((
                rng.integers(0, 8 * n_sets * assoc + 1, n).astype(np.uint64),
                rng.random(n) < 0.3,
                rng.integers(0, 256, n).astype(np.uint8),
            ))
        ref = Cache(spec)
        ref_streams = [ref.access_lines(*c) for c in chunks]
        levels = {"oracle": oracle_kernel_cache(spec)}
        if HAS_CLIB:
            levels["c"] = FastCache(spec)
        if n_sets == 1:
            with clib_unavailable():
                levels["mattson"] = FastCache(spec)
        for name, fc in levels.items():
            for chunk, expect in zip(chunks, ref_streams):
                got = fc.access_lines(*chunk)
                for a, b in zip(expect, got):
                    np.testing.assert_array_equal(a, b, err_msg=name)
            assert fc.stats.misses == ref.stats.misses, name
            assert fc.stats.writebacks == ref.stats.writebacks, name
