"""Named counters for simulation components (hosts and switches)."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

__all__ = ["Counter"]


class Counter:
    """A named bundle of monotonically increasing counters."""

    def __init__(self) -> None:
        self._values: Dict[str, int] = defaultdict(int)

    def add(self, name: str, amount: int = 1) -> None:
        """Increase counter ``name`` by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counters only increase, got {amount}")
        self._values[name] += amount

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never incremented)."""
        return self._values.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Snapshot of all counters."""
        return dict(self._values)

    def __repr__(self) -> str:
        return f"Counter({dict(self._values)!r})"
