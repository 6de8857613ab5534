"""A fixed computation that measures how fast the host runs right now.

On a shared host the speed of one core drifts by tens of percent over
minutes (the same workload run has taken anywhere from 3.0 to 4.9 s), so
host seconds alone cannot compare two runs made minutes apart.  The
benchmark times this loop next to every workload run and scales the run's
host seconds to a host on which the loop takes :data:`REFERENCE_S`.

The loop imitates the simulator's hot path (a heap of timestamped
entries, small slotted objects, deques and dict counters) but uses no
code from ``src/``, so a change to the program never changes it.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from typing import Deque, Dict, List, Tuple

__all__ = ["REFERENCE_S", "reference_seconds"]

#: Host seconds of :func:`reference_seconds` that the benchmark's times
#: are scaled to.
REFERENCE_S = 0.2


class _Node:
    __slots__ = ("queue", "count", "nbytes")

    def __init__(self) -> None:
        self.queue: Deque[Tuple[int, int]] = deque()
        self.count = 0
        self.nbytes = 0

    def handle(self, key: int, size: int, table: Dict[int, int]) -> None:
        self.queue.append((key, size))
        if len(self.queue) > 8:
            self.nbytes += self.queue.popleft()[1]
        self.count += 1
        table[key & 4095] = table.get(key & 4095, 0) + size


def reference_seconds(steps: int = 120_000) -> float:
    """Host seconds one pass of the fixed loop takes now."""
    start = time.perf_counter()
    heap: List[Tuple[int, int, _Node]] = []
    table: Dict[int, int] = {}
    nodes = [_Node() for _ in range(512)]
    for step in range(steps):
        heapq.heappush(heap, ((step * 7919) % 65521, step, nodes[step & 511]))
        if len(heap) > 256:
            stamp, key, node = heapq.heappop(heap)
            node.handle(key, stamp & 1023, table)
    return time.perf_counter() - start
