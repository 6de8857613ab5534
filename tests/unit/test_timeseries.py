"""Time-series helpers: phase slicing, convergence metrics."""

import pytest

from repro.stats import convergence_times, phase_slices


class TestPhases:
    def test_slicing(self):
        series = [(0, 1.0), (50, 2.0), (100, 3.0), (150, 4.0)]
        phases = phase_slices(series, period_ns=100)
        assert phases == [[(0, 1.0), (50, 2.0)], [(100, 3.0), (150, 4.0)]]

    def test_start_offset(self):
        series = [(0, 1.0), (100, 2.0)]
        phases = phase_slices(series, 100, start_ns=100)
        assert phases == [[(100, 2.0)]]


class TestConvergence:
    def test_immediate_convergence(self):
        series = [(0, 10.0), (10, 10.0), (100, 10.0), (110, 10.0)]
        times = convergence_times(series, period_ns=100)
        assert times == [0, 0]

    def test_slow_ramp(self):
        # Phase plateau 10; crosses 8 at t=60.
        series = [(0, 1.0), (20, 3.0), (40, 6.0), (60, 9.0), (80, 10.0)]
        times = convergence_times(series, period_ns=100,
                                  target_fraction=0.8)
        assert times == [60]

    def test_never_converges_is_none(self):
        # A phase of all zeros has no positive plateau.
        series = [(0, 0.0), (50, 0.0)]
        assert convergence_times(series, 100) == [None]

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            convergence_times([(0, 1.0)], 100, target_fraction=0.0)
