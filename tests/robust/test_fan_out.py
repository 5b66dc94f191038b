"""The studies' per-key process-pool fan-out (``repro.robust.fan_out``)."""

import multiprocessing

import pytest

from repro.robust import DegradedRunWarning, fan_out


def square_in_parent_only(key, obs_ctx=None):
    """``key`` squared; raises when run in a pool process."""
    if multiprocessing.parent_process() is not None:
        raise RuntimeError(f"pool worker refused {key}")
    return key * key


class TestFanOut:
    def test_pool_failure_raises(self):
        with pytest.raises(RuntimeError, match="pool worker refused"):
            list(fan_out("demo", square_in_parent_only, [3, 1], 2, "raise"))

    def test_pool_failure_degrades_to_serial_result(self):
        with pytest.warns(DegradedRunWarning, match="pool worker refused"):
            out = list(fan_out("demo", square_in_parent_only, [3, 1], 2,
                               "serial"))
        assert out == [(3, 9), (1, 1)]
