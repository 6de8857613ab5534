"""Measurement and analysis: percentiles, fairness, completion collectors."""

from .metrics import FctCollector, jain_fairness, percentile, summarize
from .timeseries import convergence_times, phase_slices

__all__ = ["percentile", "jain_fairness", "summarize", "FctCollector",
           "phase_slices", "convergence_times"]
