"""Workload generation: message-size distributions and arrival processes.

The paper's Figure-6 workload is "a mix of message sizes (10 KB-1 GB)...
skewed toward short messages as per existing studies [DCTCP]".
:class:`LogUniformSize` reproduces that shape; the Figure-6 driver caps
it because a 1 GB message is ~700k simulated packets (the tail is driven
by the skew, not the cap).
"""

from __future__ import annotations

import math
import random
from typing import Callable, Optional

from ..sim.engine import Simulator
from ..sim.units import SECOND

__all__ = ["FixedSize", "LogUniformSize", "PoissonArrivals",
           "UniformArrivals", "MessageWorkload"]


class SizeDistribution:
    """Interface: draw message sizes in bytes."""

    def sample(self, rng: random.Random) -> int:
        raise NotImplementedError

    def mean(self) -> float:
        """Expected size in bytes (used to derive arrival rates from load)."""
        raise NotImplementedError


class FixedSize(SizeDistribution):
    """Every message has the same size."""

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError("size must be positive")
        self.size = size

    def sample(self, rng: random.Random) -> int:
        return self.size

    def mean(self) -> float:
        return float(self.size)


class LogUniformSize(SizeDistribution):
    """Sizes log-uniform in ``[low, high]``: heavy skew toward small.

    A draw is ``exp(U(ln low, ln high))`` — each decade of sizes is equally
    likely, so most messages are short while the byte count is dominated by
    the rare large ones (the DCTCP-style shape Figure 6 uses).
    """

    def __init__(self, low: int, high: int):
        if not 0 < low <= high:
            raise ValueError("need 0 < low <= high")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random) -> int:
        value = math.exp(rng.uniform(math.log(self.low),
                                     math.log(self.high)))
        return max(self.low, min(self.high, round(value)))

    def mean(self) -> float:
        if self.low == self.high:
            return float(self.low)
        span = math.log(self.high) - math.log(self.low)
        return (self.high - self.low) / span


class ArrivalProcess:
    """Interface: inter-arrival gaps in nanoseconds."""

    def next_gap(self, rng: random.Random) -> int:
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Exponential inter-arrivals at ``rate_per_sec`` messages/second."""

    def __init__(self, rate_per_sec: float):
        if rate_per_sec <= 0:
            raise ValueError("rate must be positive")
        self.rate_per_sec = rate_per_sec

    def next_gap(self, rng: random.Random) -> int:
        return max(1, round(rng.expovariate(self.rate_per_sec) * SECOND))


class UniformArrivals(ArrivalProcess):
    """Fixed inter-arrival gap (deterministic open loop)."""

    def __init__(self, gap_ns: int):
        if gap_ns <= 0:
            raise ValueError("gap must be positive")
        self.gap_ns = gap_ns

    def next_gap(self, rng: random.Random) -> int:
        return self.gap_ns


class MessageWorkload:
    """Open-loop message generator: calls ``submit(size)`` per arrival.

    Decouples workload description from transport: the same generator
    drives MTP endpoints, TCP connection-per-message clients, and UDP
    sockets via the ``submit`` callable.
    """

    def __init__(self, sim: Simulator, rng: random.Random,
                 sizes: SizeDistribution, arrivals: ArrivalProcess,
                 submit: Callable[[int], None],
                 max_messages: Optional[int] = None,
                 stop_at_ns: Optional[int] = None):
        self.sim = sim
        self.rng = rng
        self.sizes = sizes
        self.arrivals = arrivals
        self.submit = submit
        self.max_messages = max_messages
        self.stop_at_ns = stop_at_ns
        self.generated = 0
        self.bytes_generated = 0
        self._stopped = False

    def start(self, initial_delay_ns: int = 0) -> None:
        """Begin generating (first arrival after ``initial_delay_ns``)."""
        self.sim.schedule(initial_delay_ns, self._tick)

    def stop(self) -> None:
        """Stop after the current arrival."""
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped:
            return
        if self.stop_at_ns is not None and self.sim.now >= self.stop_at_ns:
            return
        if (self.max_messages is not None
                and self.generated >= self.max_messages):
            return
        size = self.sizes.sample(self.rng)
        self.generated += 1
        self.bytes_generated += size
        self.submit(size)
        self.sim.schedule(self.arrivals.next_gap(self.rng), self._tick)
