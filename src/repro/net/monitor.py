"""Measurement probes: throughput binning and queue sampling.

Experiments attach these to ports or endpoints to obtain the time series the
paper plots (goodput every 32 us in Figure 5, proxy buffer occupancy over
time in Figure 2, per-tenant throughput in Figure 7).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..sim.engine import Simulator
from ..sim.units import SECOND

__all__ = ["RateMonitor", "PeriodicSampler"]


class RateMonitor:
    """Bins delivered bytes into fixed intervals and reports bit/s per bin.

    Components call :meth:`record_bytes` as data is delivered; the monitor
    assigns bytes to the bin containing the current virtual time.  Bins are
    materialized lazily so idle periods cost nothing.
    """

    def __init__(self, sim: Simulator, interval_ns: int):
        if interval_ns <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.interval_ns = interval_ns
        self._bins: dict = {}
        self.total_bytes = 0

    def record_bytes(self, nbytes: int) -> None:
        """Account ``nbytes`` delivered at the current virtual time."""
        index = self.sim.now // self.interval_ns
        self._bins[index] = self._bins.get(index, 0) + nbytes
        self.total_bytes += nbytes

    def series_bps(self, until_ns: Optional[int] = None,
                   ) -> List[Tuple[int, float]]:
        """Dense ``(bin_start_ns, throughput_bps)`` series, zeros included."""
        if not self._bins and until_ns is None:
            return []
        last = max(self._bins) if self._bins else 0
        if until_ns is not None:
            last = max(last, until_ns // self.interval_ns)
        series = []
        for index in range(last + 1):
            nbytes = self._bins.get(index, 0)
            bps = nbytes * 8 * SECOND / self.interval_ns
            series.append((index * self.interval_ns, bps))
        return series

    def mean_bps(self, start_ns: int = 0,
                 end_ns: Optional[int] = None) -> float:
        """Average throughput over ``[start_ns, end_ns)`` (defaults to now)."""
        if end_ns is None:
            end_ns = self.sim.now
        if end_ns <= start_ns:
            return 0.0
        total = sum(nbytes for index, nbytes in self._bins.items()
                    if start_ns <= index * self.interval_ns < end_ns)
        return total * 8 * SECOND / (end_ns - start_ns)


class PeriodicSampler:
    """Samples a callable on a fixed period, storing ``(time, value)``.

    Used for queue-occupancy traces: ``PeriodicSampler(sim, 1000,
    lambda: port.queue.bytes_queued)``.
    """

    def __init__(self, sim: Simulator, interval_ns: int,
                 probe: Callable[[], float]):
        if interval_ns <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.interval_ns = interval_ns
        self.probe = probe
        self.samples: List[Tuple[int, float]] = []
        self._stopped = False
        self.sim.schedule(0, self._tick)

    def stop(self) -> None:
        """Stop sampling after the current tick."""
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped:
            return
        self.samples.append((self.sim.now, self.probe()))
        # stop() is a flag check at fire time: the tick is never cancelled.
        self.sim.schedule(self.interval_ns, self._tick)

    def values(self) -> List[float]:
        """Just the sampled values, in time order."""
        return [value for _, value in self.samples]

    def max_value(self, default: float = 0.0) -> float:
        """Largest sampled value (``default`` when no samples yet)."""
        return max(self.values(), default=default)
