"""Discrete-event simulation kernel: clock, events, timers, RNG, counters."""

from .engine import EventHandle, SimulationError, Simulator, Timer
from .rng import SeedSequence
from .trace import Counter
from .units import (GBPS, GIB, KIB, MBPS, MIB, MICROSECOND, MILLISECOND,
                    NANOSECOND, SECOND, bytes_in_interval, format_rate,
                    format_time, gbps, mbps, microseconds, milliseconds,
                    nanoseconds, seconds, throughput_bps, transmission_delay)

__all__ = [
    "Simulator", "EventHandle", "Timer", "SimulationError",
    "SeedSequence", "Counter",
    "NANOSECOND", "MICROSECOND", "MILLISECOND", "SECOND",
    "GBPS", "MBPS", "KIB", "MIB", "GIB",
    "nanoseconds", "microseconds", "milliseconds", "seconds",
    "gbps", "mbps", "transmission_delay", "bytes_in_interval",
    "throughput_bps", "format_time", "format_rate",
]
