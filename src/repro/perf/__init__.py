"""repro.perf: process-parallel sweeps.

:func:`sweep_map` (in :mod:`repro.perf.parallel`) fans simulation points
out over worker processes and merges the results in input order.  It
backs ``python -m repro.experiments --jobs N`` and the ablation
drivers.
"""

from .parallel import SweepError, SweepFailure, SweepOutcome, sweep_map

__all__ = [
    "SweepError",
    "SweepFailure",
    "SweepOutcome",
    "sweep_map",
]
