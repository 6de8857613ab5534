"""Event kernel: ordering, cancellation, timers, bounded runs.

The kernel-semantics tests take the ``sim`` fixture below, whose single
param names the event store ``Simulator`` keeps (a binary heap), so
their ids read ``test_x[heap]``.  ``TestCancellationBookkeeping`` tests
heap compaction itself and uses the unparametrized fixture.  A
:class:`Timer` is the kernel's only cancellable event, so every
cancellation test stops or re-arms timers; tests read the heap length
through ``sim._queue``.
"""

import pytest

from repro.sim import SimulationError, Simulator, Timer
from repro.sim.engine import COMPACT_MIN_CANCELLED


@pytest.fixture(params=["heap"])
def sim(request):
    """A fresh simulator; the param id names its event store."""
    return Simulator()


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(30, order.append, "c")
        sim.schedule(10, order.append, "a")
        sim.schedule(20, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_tick_fifo(self, sim):
        order = []
        for tag in range(5):
            sim.schedule(10, order.append, tag)
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42]
        assert sim.now == 42

    def test_nested_scheduling(self, sim):
        seen = []

        def outer():
            seen.append(sim.now)
            sim.schedule(5, inner)

        def inner():
            seen.append(sim.now)

        sim.schedule(10, outer)
        sim.run()
        assert seen == [10, 15]

    def test_rejects_negative_delay(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_rejects_past_absolute_time(self, sim):
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(50, lambda: None)

    def test_events_executed_counter(self, sim):
        for _ in range(7):
            sim.schedule(1, lambda: None)
        sim.run()
        assert sim.events_executed == 7


def armed(sim, delay, callback=lambda: None):
    """A timer restarted ``delay`` ns from now."""
    timer = Timer(sim, callback)
    timer.restart(delay)
    return timer


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        timer = armed(sim, 10, lambda: fired.append(1))
        timer.stop()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        timer = armed(sim, 10)
        timer.stop()
        timer.stop()
        assert sim.pending_events() == 0
        sim.run()

    def test_pending_property(self, sim):
        timer = armed(sim, 10)
        assert timer.running
        timer.stop()
        assert not timer.running


class TestBoundedRuns:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(10, fired.append, "early")
        sim.schedule(100, fired.append, "late")
        sim.run(until=50)
        assert fired == ["early"]
        assert sim.now == 50

    def test_later_events_survive_bounded_run(self, sim):
        fired = []
        sim.schedule(100, fired.append, "late")
        sim.run(until=50)
        sim.run()
        assert fired == ["late"]

    def test_run_for_composes(self, sim):
        sim.run_for(10)
        sim.run_for(10)
        assert sim.now == 20



class TestTimer:
    def test_fires_after_delay(self, sim):
        fired = []
        timer = armed(sim, 25, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [25]
        assert not timer.running

    def test_restart_pushes_expiry_out(self, sim):
        fired = []
        timer = armed(sim, 25, lambda: fired.append(sim.now))
        sim.schedule(10, timer.restart, 25)
        sim.run()
        assert fired == [35]

    def test_stop_prevents_fire(self, sim):
        fired = []
        timer = armed(sim, 25, lambda: fired.append(1))
        timer.stop()
        sim.run()
        assert fired == []


class TestCancellationBookkeeping:
    """pending_events() is O(1) and the heap compacts away cancelled junk."""

    @pytest.fixture
    def sim(self):
        return Simulator()

    def test_pending_events_counts_live_only(self, sim):
        timers = [armed(sim, 10 + index) for index in range(10)]
        assert sim.pending_events() == 10
        for timer in timers[:4]:
            timer.stop()
        assert sim.pending_events() == 6

    def test_double_cancel_counted_once(self, sim):
        timer = armed(sim, 10)
        sim.schedule(20, lambda: None)
        timer.stop()
        timer.stop()
        assert sim.pending_events() == 1

    def test_cancel_after_fire_does_not_skew(self, sim):
        timer = armed(sim, 10)
        sim.run()
        timer.stop()  # already fired: a no-op
        assert sim.pending_events() == 0
        assert sim._cancelled == 0

    def test_run_drains_cancelled_entries(self, sim):
        fired = []
        armed(sim, 50, lambda: fired.append(sim.now))
        doomed = [armed(sim, 5 + index, lambda: fired.append("doomed"))
                  for index in range(20)]
        for timer in doomed:
            timer.stop()
        sim.run()
        assert fired == [50]
        assert sim.pending_events() == 0
        assert sim._queue == []

    def test_heap_compaction_sheds_cancelled_entries(self, sim):
        total = 4 * COMPACT_MIN_CANCELLED
        timers = [armed(sim, 1000 + index) for index in range(total)]
        # Cancel enough that cancelled entries dominate the heap.
        for timer in timers[: total - 10]:
            timer.stop()
        # The stops compacted the heap; a run up to the first live
        # entry pops the dead entries left at its head.
        assert len(sim._queue) < total - COMPACT_MIN_CANCELLED
        sim.run(until=1000 + total - 11)
        assert sim.events_executed == 0
        assert len(sim._queue) == 10
        assert sim.pending_events() == 10

    def test_compaction_preserves_order_and_results(self, sim):
        order = []
        keep = []
        total = 4 * COMPACT_MIN_CANCELLED
        for index in range(total):
            timer = armed(sim, 10 + index,
                          lambda index=index: order.append(index))
            if index % 16 != 0:
                timer.stop()
            else:
                keep.append(index)
        sim.run()
        assert order == keep

    def test_cancel_compacts_without_a_run(self, sim):
        total = 4 * COMPACT_MIN_CANCELLED
        timers = [armed(sim, 10 + index) for index in range(total)]
        # Keep the earliest events live, so no head pop can shed the
        # cancelled ones: only compaction can.
        for timer in timers[10:]:
            timer.stop()
            junk = len(sim._queue) - sim.pending_events()
            assert junk <= max(COMPACT_MIN_CANCELLED,
                               len(sim._queue) // 2)
        assert sim.pending_events() == 10
        assert len(sim._queue) < total - COMPACT_MIN_CANCELLED

    def test_no_compaction_below_threshold(self, sim):
        timers = [armed(sim, 10 + index) for index in range(8)]
        for timer in timers[2:]:  # keep the heap top live
            timer.stop()
        assert len(sim._queue) == 8  # too few cancellations to bother
        assert sim.pending_events() == 2


class TestScheduleFast:
    """Handle-free scheduling: ``schedule`` and ``at`` queue a plain
    ``(time, seq, callback, args)`` entry and return nothing; only a
    timer can be cancelled."""

    def test_returns_none(self, sim):
        def callback(*args):
            pass

        assert sim.schedule(5, callback) is None
        assert sim.at(7, callback, "x") is None
        assert sim._queue == [(5, 0, callback, ()), (7, 1, callback, ("x",))]

    def test_interleaves_with_handled_events_in_seq_order(self, sim):
        order = []
        armed(sim, 10, lambda: order.append("a"))
        sim.schedule(10, order.append, "b")
        armed(sim, 10, lambda: order.append("c"))
        sim.schedule(5, order.append, "first")
        sim.run()
        assert order == ["first", "a", "b", "c"]

    def test_rejects_negative_delay(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)
        # A rejected call queues nothing and takes no seq.
        assert sim._queue == []
        assert sim._seq == 0

    def test_counts_as_pending(self, sim):
        sim.schedule(10, lambda: None)
        assert sim.pending_events() == 1
        sim.run()
        assert sim.pending_events() == 0

    def test_args_are_passed(self, sim):
        seen = []
        sim.schedule(1, lambda a, b: seen.append((a, b)), 1, "x")
        sim.run()
        assert seen == [(1, "x")]

    def test_survives_bounded_run_boundary(self, sim):
        fired = []
        sim.schedule(100, fired.append, "late")
        sim.run(until=50)
        assert fired == []
        sim.run()
        assert fired == ["late"]

    def test_fast_events_visible_to_event_hooks(self, sim):
        seen = []
        sim.add_event_hook(
            lambda time, cb, args: seen.append((time, cb.__qualname__,
                                                args)))
        sim.schedule(7, seen.append, "called")
        timer = armed(sim, 9)
        sim.run()
        # A timer wake-up reaches hooks as (time, timer._fire, ()), so
        # replay traces name it ``Timer._fire``.
        assert seen == [(7, "list.append", ("called",)), "called",
                        (9, "Timer._fire", ())]
        assert not timer.running


class TestBoundedRunChurn:
    """run(until=...) peeks instead of pop/re-pushing the first
    out-of-window event (the old boundary churn)."""

    def test_run_for_loop_preserves_entry(self, sim):
        fired = []
        sim.schedule(10_000, fired.append, "late")
        before = list(sim._queue)
        for _ in range(50):
            sim.run_for(100)
        # The out-of-window event was never popped and re-pushed, and no
        # churn entries accumulated.
        assert sim._queue == before
        assert fired == []
        sim.run()
        assert fired == ["late"]

    def test_boundary_exact_time_still_fires(self, sim):
        fired = []
        sim.schedule(50, fired.append, "edge")
        sim.run(until=50)
        assert fired == ["edge"]
        assert sim.now == 50


class TestTimerOrderingInvariant:
    """Entries are (time, seq, ...) tuples with unique (time, seq):
    comparison never reaches element 2 or 3, so Timer defines no
    ordering (an ``__lt__`` could mask a broken-invariant bug)."""

    def test_timers_are_not_orderable(self, sim):
        a = armed(sim, 1)
        b = armed(sim, 2)
        with pytest.raises(TypeError):
            a < b  # noqa: B015  (the comparison itself is the assertion)

    def test_mass_same_tick_fifo(self, sim):
        # If tuple comparison ever reached element 2, this would raise
        # TypeError (None against a callback, unorderable timers) or
        # scramble FIFO order.
        order = []
        for tag in range(500):
            if tag % 2:
                armed(sim, 10, lambda tag=tag: order.append(tag))
            else:
                sim.schedule(10, order.append, tag)
        sim.run()
        assert order == list(range(500))


class TestTimerEdgeCases:
    """Restart storms, restarts to earlier deadlines, rejected delays."""

    def test_restart_storm_leaves_single_pending_event(self, sim):
        timer = armed(sim, 1_000_000)
        for _ in range(10_000):
            timer.restart(1_000_000)
        assert sim.pending_events() == 1
        # Deferred re-arm: a restart to a later deadline queues nothing.
        assert len(sim._queue) == 1
        # A storm of restarts to ever earlier deadlines leaves dead
        # entries; compaction keeps them under half the heap.
        for delay in range(999_999, 989_999, -1):
            timer.restart(delay)
            junk = len(sim._queue) - sim.pending_events()
            assert junk <= max(COMPACT_MIN_CANCELLED,
                               len(sim._queue) // 2 + 1)
        assert sim.pending_events() == 1

    def test_restart_storm_fires_exactly_once(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        for _ in range(10_000):
            timer.restart(500)
        sim.run()
        assert fired == [500]
        assert sim.pending_events() == 0

    def test_restart_tracks_latest_deadline(self, sim):
        fired = []
        timer = armed(sim, 100, lambda: fired.append(sim.now))
        for delay in (200, 50, 300):
            timer.restart(delay)
        sim.run()
        assert fired == [300]
        # The wake-up at 50 chased the deadline to 300: two events.
        assert sim.events_executed == 2

    def test_rejected_restart_leaves_timer_armed(self, sim):
        fired = []
        timer = armed(sim, 100, lambda: fired.append(sim.now))
        with pytest.raises(SimulationError):
            timer.restart(-5)
        assert timer.running
        sim.run()
        assert fired == [100]

    def test_rejected_start_leaves_timer_stopped(self, sim):
        timer = Timer(sim, lambda: None)
        with pytest.raises(SimulationError):
            timer.restart(-1)
        assert not timer.running
        assert sim.pending_events() == 0
