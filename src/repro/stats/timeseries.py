"""Time-series utilities: phase slicing and convergence metrics.

The Figure-5 claim is not only "higher goodput" but "converges faster":
after every path flip the transport should return to the new path's
capacity quickly.  :func:`convergence_times` measures exactly that — for
each phase boundary, the delay until the series first sustains a target
fraction of the phase's plateau.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

__all__ = ["phase_slices", "convergence_times"]

Series = Sequence[Tuple[int, float]]


def phase_slices(series: Series, period_ns: int,
                 start_ns: int = 0) -> List[List[Tuple[int, float]]]:
    """Split a series into consecutive phases of ``period_ns`` each."""
    if period_ns <= 0:
        raise ValueError("period must be positive")
    phases: dict = {}
    for time, value in series:
        if time < start_ns:
            continue
        phases.setdefault((time - start_ns) // period_ns, []).append(
            (time, value))
    return [phases[index] for index in sorted(phases)]


def convergence_times(series: Series, period_ns: int,
                      target_fraction: float = 0.8,
                      start_ns: int = 0) -> List[Optional[int]]:
    """Per phase: delay until the series first reaches the phase plateau.

    Each phase's plateau is estimated as the 90th-percentile value within
    the phase; convergence is the first sample at or above
    ``target_fraction`` of it.  Returns one entry per phase — ``None`` when
    the phase never converged (the "may not converge at all" case).
    """
    if not 0 < target_fraction <= 1:
        raise ValueError("target_fraction must be in (0, 1]")
    results: List[Optional[int]] = []
    for phase in phase_slices(series, period_ns, start_ns):
        if not phase:
            results.append(None)
            continue
        values = sorted(value for _, value in phase)
        plateau = values[min(len(values) - 1, int(0.9 * len(values)))]
        if plateau <= 0:
            results.append(None)
            continue
        phase_start = phase[0][0]
        hit = next((time for time, value in phase
                    if value >= target_fraction * plateau), None)
        results.append(None if hit is None else hit - phase_start)
    return results
