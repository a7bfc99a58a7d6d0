"""Calibrated-seconds arithmetic."""

import pytest

from perf import calibrate


def test_reference_host_is_the_identity():
    loops = [calibrate.REFERENCE_LOOP_S] * 3
    assert calibrate.factor(loops) == pytest.approx(1.0)


def test_a_host_twice_as_slow_reads_the_same():
    # Everything takes twice as long, the loop included.
    fast = 1.0 * calibrate.factor([0.1, 0.1])
    slow = 2.0 * calibrate.factor([0.2, 0.2])
    assert fast == pytest.approx(slow)


def test_factor_uses_the_mean_of_the_bracketing_loops():
    assert calibrate.factor([0.05, 0.15]) == pytest.approx(1.0)
    assert calibrate.factor([0.2]) == pytest.approx(0.5)


def test_factor_rejects_nonsense():
    with pytest.raises(ValueError):
        calibrate.factor([])
    with pytest.raises(ValueError):
        calibrate.factor([0.1, 0.0])


def test_the_loop_does_fixed_work():
    ticks = iter(range(1000))
    wall = calibrate.calibration_loop(iterations=500,
                                      clock=lambda: float(next(ticks)))
    assert wall == 1.0        # exactly two clock reads, whatever the work
