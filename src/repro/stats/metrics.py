"""Metrics: percentiles, fairness, and flow/message completion collection."""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

__all__ = ["percentile", "jain_fairness", "FctCollector", "summarize"]


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile (linear interpolation, pct in [0, 100])."""
    if not values:
        raise ValueError("cannot take a percentile of no samples")
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = pct / 100 * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    fraction = rank - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def jain_fairness(shares: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly equal, 1/n = one taker.

    Defined as ``(sum x)^2 / (n * sum x^2)``.
    """
    if not shares:
        raise ValueError("need at least one share")
    total = sum(shares)
    squares = sum(share * share for share in shares)
    if squares == 0:
        return 1.0  # all zero: trivially equal
    return total * total / (len(shares) * squares)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Mean / p50 / p95 / p99 / max of a sample set."""
    if not values:
        return {"count": 0}
    return {
        "count": len(values),
        "mean": sum(values) / len(values),
        "p50": percentile(values, 50),
        "p95": percentile(values, 95),
        "p99": percentile(values, 99),
        "max": max(values),
    }


class FctCollector:
    """Collects message/flow completion times for FCT-style analysis.

    This backs the Figure-6 tail-FCT comparison.
    """

    def __init__(self) -> None:
        self._completions: List[int] = []

    def record(self, completion_ns: int) -> None:
        """Add one completion."""
        if completion_ns < 0:
            raise ValueError("completion time must be non-negative")
        self._completions.append(completion_ns)

    def __len__(self) -> int:
        return len(self._completions)

    def completions(self) -> List[int]:
        """Completion times in the order they were recorded."""
        return list(self._completions)

    def tail(self, pct: float = 99.0) -> float:
        """Tail completion time (default p99) over every record."""
        return percentile(self._completions, pct)
