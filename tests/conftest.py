"""Shared test infrastructure: golden-file fixture, Hypothesis profiles.

``--update-golden`` regenerates the committed artifacts under
``tests/golden/`` instead of comparing against them::

    PYTHONPATH=src python -m pytest tests/golden --update-golden

Hypothesis (optional dependency) gets two registered profiles: ``dev``
(default) and ``ci`` (fixed seed via ``derandomize`` so CI failures
reproduce).  Select with ``HYPOTHESIS_PROFILE=ci``.

``no_clib`` (and :func:`clib_unavailable`, its context-manager form)
takes the C library of :mod:`repro._clib` away, as on a host with no
compiler: the cache levels and the trace-IR codec then run the paths
such a host runs.  ``replay_path``, parametrized indirectly with
:data:`REPLAY_PATHS`, runs a test once per path: ``"c"`` with the
library (skipped where it does not load), ``"python"`` under
``no_clib``.  The switch is in-process only: pool workers load the
library themselves, so tests that start a pool run on the host path.
"""

import json
import math
import os
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro import _clib

GOLDEN_DIR = Path(__file__).parent / "golden" / "data"

#: Relative tolerance for golden float comparisons: loose enough to ride
#: out last-bit libm/platform drift, tight enough that any real change in
#: simulated counts or model outputs fails loudly.
GOLDEN_RTOL = 1e-9

try:
    from hypothesis import settings

    settings.register_profile("dev", max_examples=100)
    settings.register_profile(
        "ci", max_examples=200, derandomize=True, print_blob=True
    )
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # pragma: no cover - hypothesis is optional
    pass


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/data/*.json from the current outputs "
        "instead of comparing against them",
    )


def _diff(path, golden, got, rtol):
    """First difference between ``golden`` and ``got``, or None."""
    if isinstance(golden, dict) and isinstance(got, dict):
        if sorted(golden) != sorted(got):
            return f"{path}: keys {sorted(golden)} != {sorted(got)}"
        for k in golden:
            d = _diff(f"{path}.{k}", golden[k], got[k], rtol)
            if d:
                return d
        return None
    if isinstance(golden, list) and isinstance(got, list):
        if len(golden) != len(got):
            return f"{path}: length {len(golden)} != {len(got)}"
        for i, (a, b) in enumerate(zip(golden, got)):
            d = _diff(f"{path}[{i}]", a, b, rtol)
            if d:
                return d
        return None
    if isinstance(golden, float) or isinstance(got, float):
        a, b = float(golden), float(got)
        if math.isclose(a, b, rel_tol=rtol, abs_tol=rtol):
            return None
        return f"{path}: {a!r} != {b!r} (rel_tol={rtol})"
    if golden != got:
        return f"{path}: {golden!r} != {got!r}"
    return None


class GoldenChecker:
    """Compare a payload against a committed golden JSON artifact.

    Integers and strings must match exactly; floats within
    :data:`GOLDEN_RTOL`.  With ``--update-golden`` the artifact is
    (re)written and the test passes.
    """

    def __init__(self, update: bool):
        self.update = update

    def check(self, name: str, payload, rtol: float = GOLDEN_RTOL) -> None:
        path = GOLDEN_DIR / f"{name}.json"
        # Round-trip through JSON so tuples/ints normalize identically on
        # both sides of the comparison.
        payload = json.loads(json.dumps(payload, sort_keys=True))
        if self.update:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
            return
        if not path.exists():
            pytest.fail(
                f"golden artifact {path} missing — generate it with "
                f"--update-golden and commit it"
            )
        golden = json.loads(path.read_text())
        diff = _diff(name, golden, payload, rtol)
        if diff:
            pytest.fail(
                f"golden mismatch for {name}: {diff}\n"
                f"(if the change is intentional, regenerate with "
                f"--update-golden)"
            )


@pytest.fixture
def golden(request):
    return GoldenChecker(request.config.getoption("--update-golden"))


@contextmanager
def clib_unavailable():
    """Within the block, :func:`repro._clib.load` finds no library."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_clib, "_state", (None, "forced by test"))
        yield


@pytest.fixture
def no_clib():
    """Run a test as on a host where the C library does not load."""
    with clib_unavailable():
        yield


#: Whether this host builds and loads the C library.
HAS_CLIB = _clib.load() is not None

#: The two replay paths, for ``parametrize("replay_path", ...,
#: indirect=True)``: absence of the library is an environment fact, so
#: the ``"c"`` leg skips rather than fails where it does not load.
REPLAY_PATHS = [
    pytest.param("c", marks=pytest.mark.skipif(
        not HAS_CLIB, reason="C library unavailable")),
    "python",
]


@pytest.fixture
def replay_path(request):
    """The path's name; ``"python"`` runs the test under ``no_clib``."""
    if request.param == "python":
        request.getfixturevalue("no_clib")
    return request.param
