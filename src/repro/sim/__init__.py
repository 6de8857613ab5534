"""Discrete-event simulation kernel: clock, events, timers, RNG, units."""

from .engine import SimulationError, Simulator, Timer
from .rng import SeedSequence
from .units import (GBPS, GIB, KIB, MBPS, MIB, MICROSECOND, MILLISECOND,
                    NANOSECOND, SECOND, format_rate, format_time, gbps,
                    mbps, microseconds, milliseconds, nanoseconds, seconds,
                    transmission_delay)

__all__ = [
    "Simulator", "Timer", "SimulationError",
    "SeedSequence",
    "NANOSECOND", "MICROSECOND", "MILLISECOND", "SECOND",
    "GBPS", "MBPS", "KIB", "MIB", "GIB",
    "nanoseconds", "microseconds", "milliseconds", "seconds",
    "gbps", "mbps", "transmission_delay", "format_time", "format_rate",
]
