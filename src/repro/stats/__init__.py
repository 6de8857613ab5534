"""Measurement and analysis: percentiles, fairness, completion collectors."""

from .metrics import (FctCollector, cdf_points, jain_fairness, percentile,
                      summarize)
from .timeseries import (convergence_times, phase_slices,
                         time_weighted_mean)

__all__ = ["percentile", "jain_fairness", "summarize", "FctCollector",
           "cdf_points", "phase_slices", "convergence_times",
           "time_weighted_mean"]
