"""Same-nanosecond event order as a seeded random variable.

The base :class:`~repro.sim.engine.Simulator` runs events that share a
timestamp in scheduling order.  Nothing in the model says that order is
physical, so a result that only holds under it is an artefact.
:class:`TieShuffleSimulator` runs such events in an order drawn from its
own seeded generator instead: run an experiment under several tie seeds
to see how far a number moves with the order alone.
"""

from __future__ import annotations

import random
from heapq import heappush
from typing import Any, Callable

from ..sim.engine import SimulationError, Simulator, Timer
from ..sim.units import format_time

__all__ = ["TieShuffleSimulator"]

#: The counter occupies the seq's low bits; the random key sits above.
_COUNTER_BITS = 40
_KEY_BITS = 20


class TieShuffleSimulator(Simulator):
    """Simulator that orders same-time events by a seeded random key.

    Every queued entry's seq is ``(random key << 40) | counter``.  The
    key decides the order among entries that share a timestamp; the
    counter, kept in ``_seq`` as in the base class, keeps seqs unique,
    so entry comparison never reaches the callback and a :class:`Timer`
    still recognises its live entry by seq.  The same seed gives the
    same run.
    """

    __slots__ = ("_ties",)

    def __init__(self, seed: int):
        super().__init__()
        self._ties = random.Random(seed)

    def _next_seq(self) -> int:
        counter = self._seq
        self._seq = counter + 1
        return (self._ties.getrandbits(_KEY_BITS) << _COUNTER_BITS) | counter

    def schedule(self, delay: int, callback: Callable[..., None],
                 *args: Any) -> None:
        if delay < 0:
            raise SimulationError(
                f"cannot schedule into the past: delay={delay}")
        heappush(self._queue,
                 (self.now + delay, self._next_seq(), callback, args))

    def at(self, time: int, callback: Callable[..., None],
           *args: Any) -> None:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {format_time(time)}, "
                f"now is {format_time(self.now)}")
        heappush(self._queue, (time, self._next_seq(), callback, args))

    def _arm(self, time: int, timer: Timer) -> int:
        seq = self._next_seq()
        heappush(self._queue, (time, seq, None, timer))
        return seq
