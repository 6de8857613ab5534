"""Discrete-event simulation kernel.

A :class:`Simulator` owns a binary heap of timestamped events.  Events
scheduled for the same tick fire in scheduling order (FIFO), which keeps
runs deterministic.  Components hold a reference to the simulator and use
:meth:`Simulator.schedule` / :meth:`Simulator.at` to arrange callbacks,
and :class:`Timer` for restartable timeouts (retransmission timers and
the like).  A scheduled callback cannot be cancelled: a :class:`Timer`
is the kernel's only cancellable event.

**Event-store entries and the tuple-ordering invariant.**  Entries are
plain 4-tuples: ``(time, seq, callback, args)`` for scheduled callbacks
and ``(time, seq, None, timer)`` for timer wake-ups, so the run loop
tells them apart by one ``is None`` test.  ``seq`` is unique per
simulator, so tuple comparison — which is C-level, and what every heap
operation uses — is always decided by ``(time, seq)`` and never reaches
element 2.  :class:`Timer` therefore deliberately defines **no**
``__lt__``; a regression test pins the invariant.

Correctness tooling (see ``repro.analysis``) plugs in through two optional
hooks that cost one branch per event when unused:

* :meth:`Simulator.add_event_hook` — called as ``hook(time, callback, args)``
  just before each event executes (a timer wake-up is reported as
  ``(time, timer._fire, ())``); the replay-divergence detector and the
  sanitizing simulator both build on it.
* :attr:`Simulator.ledger` — an optional packet-conservation ledger consulted
  by hosts, switches, and ports (``repro.analysis.sanitize.PacketLedger``).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple  # noqa: F401

from .units import format_time

__all__ = ["Simulator", "Timer", "SimulationError"]

#: Compaction is considered once the heap holds more than this many
#: dead timer entries (keeps tiny heaps out of the bookkeeping).
COMPACT_MIN_CANCELLED = 64

#: An event-store entry: ``(time, seq, callback, args)`` or
#: ``(time, seq, None, timer)`` — see the module docstring.
Entry = Tuple[Any, ...]

#: The run loop's time limit when :meth:`Simulator.run` is given none:
#: later than any event (about 292 years of nanoseconds).
_NO_LIMIT = (1 << 63) - 1


class SimulationError(RuntimeError):
    """Raised on kernel misuse (scheduling in the past, running twice, ...)."""


def _past_delay(delay: int) -> SimulationError:
    return SimulationError(f"cannot schedule into the past: delay={delay}")


class Simulator:
    """Event loop with integer-nanosecond virtual time.

    The event store is a binary heap.  A stopped or re-armed timer leaves
    its old entry in place (lazy cancellation): the dead entry is skipped
    when it reaches the head, and the heap is rebuilt without dead
    entries once they dominate it (each compaction removes at least half
    the heap, paid for by the cancellations accumulated since the last
    one).  The test runs where the dead count grows, in
    :meth:`_note_cancelled`, not per event.
    """

    __slots__ = ("_queue", "_cancelled", "now", "_seq", "_running",
                 "_event_hooks", "events_executed", "ledger")

    def __init__(self) -> None:
        self._queue: List[Entry] = []
        #: Dead timer entries still sitting in the heap.
        self._cancelled = 0
        #: Current virtual time in nanoseconds.  A plain attribute, read on
        #: every packet; only the simulator writes it.
        self.now: int = 0
        self._seq: int = 0
        self._running = False
        #: Pre-execution observers (replay tracing, sanitizers).
        self._event_hooks: List[Callable[[int, Callable, Tuple], None]] = []
        self.events_executed: int = 0
        #: Optional packet-conservation ledger (repro.analysis.sanitize);
        #: hosts, switches, and ports consult it when set.
        self.ledger: Optional[Any] = None

    def schedule(self, delay: int, callback: Callable[..., None],
                 *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now."""
        if delay < 0:
            raise _past_delay(delay)
        seq = self._seq
        heappush(self._queue, (self.now + delay, seq, callback, args))
        self._seq = seq + 1

    def at(self, time: int, callback: Callable[..., None],
           *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute virtual ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {format_time(time)}, "
                f"now is {format_time(self.now)}")
        seq = self._seq
        heappush(self._queue, (time, seq, callback, args))
        self._seq = seq + 1

    def _arm(self, time: int, timer: "Timer") -> int:
        """Queue a wake-up of ``timer`` at ``time``; returns its seq."""
        seq = self._seq
        heappush(self._queue, (time, seq, None, timer))
        self._seq = seq + 1
        return seq

    def add_event_hook(
            self, hook: Callable[[int, Callable, Tuple], None]) -> None:
        """Register ``hook(time, callback, args)`` to observe each event.

        Hooks fire after the clock has advanced to the event's timestamp and
        before the callback executes, in registration order.  Used by the
        replay-divergence detector and the sanitizing simulator; costs one
        branch per event when no hook is installed.
        """
        self._event_hooks.append(hook)

    def remove_event_hook(
            self, hook: Callable[[int, Callable, Tuple], None]) -> None:
        """Unregister a previously added event hook."""
        self._event_hooks.remove(hook)

    def _note_cancelled(self) -> None:
        """Record that a queued timer entry went dead, and compact once
        dead entries dominate the heap."""
        cancelled = self._cancelled + 1
        self._cancelled = cancelled
        if (cancelled > COMPACT_MIN_CANCELLED
                and cancelled * 2 > len(self._queue)):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without dead timer entries (O(n)).

        The list is rebuilt in place, so the reference to ``_queue`` that
        a running :meth:`run` holds stays valid.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue
                    if entry[2] is not None or entry[3]._seq == entry[1]]
        heapify(queue)
        self._cancelled = 0

    def run(self, until: Optional[int] = None) -> int:
        """Run events until the queue drains or virtual time passes ``until``.

        Returns the virtual time at which the run stopped.  When ``until`` is
        given, the clock is advanced to exactly ``until`` even if the last
        event fired earlier, so successive bounded runs compose predictably.
        The head entry is peeked before it is popped, so an out-of-window
        event stays queued and bounded ``run_for`` loops never pay a
        pop/re-push.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        queue = self._queue
        hooks = self._event_hooks
        limit = _NO_LIMIT if until is None else until
        try:
            while queue:
                entry = queue[0]
                if entry[0] > limit:
                    break
                heappop(queue)
                callback = entry[2]
                if callback is None:
                    timer = entry[3]
                    if timer._seq != entry[1]:
                        self._cancelled -= 1
                        continue
                    timer._seq = -1
                    callback = timer._fire
                    args = ()
                else:
                    args = entry[3]
                self.now = entry[0]
                self.events_executed += 1
                if hooks:
                    for hook in hooks:
                        hook(entry[0], callback, args)
                callback(*args)
        finally:
            self._running = False
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def run_for(self, duration: int) -> int:
        """Run for ``duration`` ns of virtual time from the current instant."""
        return self.run(until=self.now + duration)

    def pending_events(self) -> int:
        """Number of live events still queued.  O(1).

        Exact because every fired or skipped entry is popped and
        :meth:`_compact` removes exactly the ``_cancelled`` entries.
        """
        return len(self._queue) - self._cancelled

    def __repr__(self) -> str:
        return (f"<Simulator now={format_time(self.now)} "
                f"queued={len(self._queue)} "
                f"executed={self.events_executed}>")


class Timer:
    """Restartable one-shot timer bound to a simulator.

    Typical use is a retransmission timer: ``restart()`` on every ACK,
    ``stop()`` when everything is acknowledged.  The callback passed at
    construction fires with no arguments when the timer expires.

    A timer is its own event-store entry, ``(time, seq, None, timer)``,
    live while the timer's ``_seq`` equals the entry's ``seq``.
    :meth:`stop`, or a restart to an earlier deadline, leaves the queued
    entry dead and counts it toward compaction.  Timers are **never
    compared**: the unique ``(time, seq)`` prefix decides every entry
    comparison, so this class intentionally defines no ordering methods.

    ``restart()`` uses **deferred re-arm**: when the new deadline is at
    or past the queued wake-up (the common case — RTO restarts only ever
    push the deadline forward), the queued entry is left in place and
    only the target deadline is updated, making the per-ACK restart a
    pair of field writes instead of a cancel plus a fresh entry.  When
    the wake-up pops, :meth:`_fire` notices the deadline has moved and
    re-queues itself for the remainder; the callback still runs at
    exactly the virtual time a cancel-and-reschedule implementation
    would have produced.  At most one live entry per timer is ever
    queued.
    """

    __slots__ = ("_sim", "_callback", "_seq", "_wake", "_deadline")

    def __init__(self, sim: Simulator, callback: Callable[[], None]):
        self._sim = sim
        self._callback = callback
        #: Seq of the live queued entry, or -1 when none is queued.
        self._seq = -1
        #: Time of the live entry; the deadline may lie past it.
        self._wake = 0
        self._deadline = 0

    @property
    def running(self) -> bool:
        """True while an expiry is scheduled."""
        return self._seq >= 0

    def restart(self, delay: int) -> None:
        """(Re)arm the timer ``delay`` ns from now, superseding any
        pending expiry.  A rejected ``delay`` leaves the timer as it was.
        """
        if delay < 0:
            raise _past_delay(delay)
        sim = self._sim
        deadline = sim.now + delay
        self._deadline = deadline
        if self._seq >= 0:
            if self._wake <= deadline:
                # Deferred re-arm: the queued entry will wake no later
                # than the new deadline and re-queue itself for the rest.
                return
            self._seq = -1
            sim._note_cancelled()
        self._wake = deadline
        self._seq = sim._arm(deadline, self)

    def stop(self) -> None:
        """Cancel the pending expiry, if any.  Idempotent."""
        if self._seq >= 0:
            self._seq = -1
            self._sim._note_cancelled()

    def _fire(self) -> None:
        deadline = self._deadline
        if deadline > self._sim.now:
            # The deadline moved forward after this entry was queued
            # (deferred re-arm): chase it instead of firing.
            self._wake = deadline
            self._seq = self._sim._arm(deadline, self)
            return
        self._callback()
