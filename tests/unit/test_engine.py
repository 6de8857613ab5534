"""Event kernel: ordering, cancellation, timers, bounded runs.

The kernel-semantics tests take the ``sim`` fixture below, whose single
param names the event store ``Simulator`` keeps (a binary heap), so
their ids read ``test_x[heap]``.  ``TestCancellationBookkeeping`` tests
heap compaction itself and uses the unparametrized fixture.
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


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule(10, fired.append, 1)
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        handle = sim.schedule(10, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_pending_property(self, sim):
        handle = sim.schedule(10, lambda: None)
        assert handle.pending
        handle.cancel()
        assert not handle.pending


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

    def test_stop_halts_loop(self, sim):
        fired = []
        sim.schedule(1, sim.stop)
        sim.schedule(2, fired.append, "never")
        sim.run()
        assert fired == []
        assert sim.pending_events() == 1

    def test_peek_time_skips_cancelled(self, sim):
        handle = sim.schedule(5, lambda: None)
        sim.schedule(9, lambda: None)
        handle.cancel()
        assert sim.peek_time() == 9

    def test_peek_time_empty(self, sim):
        assert sim.peek_time() is None


class TestTimer:
    def test_fires_after_delay(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(25)
        sim.run()
        assert fired == [25]
        assert not timer.running

    def test_restart_pushes_expiry_out(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(25)
        sim.schedule(10, timer.restart, 25)
        sim.run()
        assert fired == [35]

    def test_stop_prevents_fire(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.start(25)
        timer.stop()
        sim.run()
        assert fired == []

    def test_double_start_rejected(self, sim):
        timer = Timer(sim, lambda: None)
        timer.start(5)
        with pytest.raises(SimulationError):
            timer.start(5)

    def test_expiry_time(self, sim):
        timer = Timer(sim, lambda: None)
        assert timer.expiry_time is None
        timer.start(30)
        assert timer.expiry_time == 30


class TestCancellationBookkeeping:
    """pending_events() is O(1) and the heap compacts away cancelled junk."""

    @pytest.fixture
    def sim(self):
        return Simulator()

    def test_pending_events_counts_live_only(self, sim):
        handles = [sim.schedule(10 + index, lambda: None)
                   for index in range(10)]
        assert sim.pending_events() == 10
        for handle in handles[:4]:
            handle.cancel()
        assert sim.pending_events() == 6

    def test_double_cancel_counted_once(self, sim):
        handle = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending_events() == 1

    def test_cancel_after_fire_does_not_skew(self, sim):
        handle = sim.schedule(10, lambda: None)
        sim.run()
        handle.cancel()  # already fired: a no-op
        assert sim.pending_events() == 0

    def test_run_drains_cancelled_entries(self, sim):
        fired = []
        live = sim.schedule(50, fired.append, "live")
        doomed = [sim.schedule(5 + index, fired.append, "doomed")
                  for index in range(20)]
        for handle in doomed:
            handle.cancel()
        sim.run()
        assert fired == ["live"]
        assert sim.pending_events() == 0
        assert live.time == 50

    def test_heap_compaction_sheds_cancelled_entries(self, sim):
        total = 4 * COMPACT_MIN_CANCELLED
        handles = [sim.schedule(1000 + index, lambda: None)
                   for index in range(total)]
        # Cancel enough that cancelled entries dominate the heap.
        for handle in handles[: total - 10]:
            handle.cancel()
        # The cancels compacted the heap; peek_time pops the cancelled
        # entries left at its head.
        sim.peek_time()
        assert sim.queued_entries() == 10
        assert sim.pending_events() == 10

    def test_compaction_preserves_order_and_results(self, sim):
        order = []
        keep = []
        total = 4 * COMPACT_MIN_CANCELLED
        for index in range(total):
            handle = sim.schedule(10 + index, order.append, index)
            if index % 16 != 0:
                handle.cancel()
            else:
                keep.append(index)
        sim.peek_time()
        sim.run()
        assert order == keep

    def test_cancel_compacts_without_a_run(self, sim):
        total = 4 * COMPACT_MIN_CANCELLED
        handles = [sim.schedule(10 + index, lambda: None)
                   for index in range(total)]
        # Keep the earliest events live, so no head pop can shed the
        # cancelled ones: only compaction can.
        for handle in handles[10:]:
            handle.cancel()
            junk = sim.queued_entries() - sim.pending_events()
            assert junk <= max(COMPACT_MIN_CANCELLED,
                               sim.queued_entries() // 2)
        assert sim.pending_events() == 10
        assert sim.queued_entries() < total - COMPACT_MIN_CANCELLED

    def test_no_compaction_below_threshold(self, sim):
        handles = [sim.schedule(10 + index, lambda: None)
                   for index in range(8)]
        for handle in handles[2:]:  # keep the heap top live
            handle.cancel()
        sim.peek_time()
        assert sim.queued_entries() == 8  # too few cancellations to bother
        assert sim.pending_events() == 2


class TestScheduleFast:
    """Handle-free scheduling: same semantics, no cancellation."""

    def test_returns_none(self, sim):
        assert sim.schedule_fast(5, lambda: None) is None

    def test_interleaves_with_handled_events_in_seq_order(self, sim):
        order = []
        sim.schedule(10, order.append, "a")
        sim.schedule_fast(10, order.append, "b")
        sim.schedule(10, order.append, "c")
        sim.schedule_fast(5, order.append, "first")
        sim.run()
        assert order == ["first", "a", "b", "c"]

    def test_rejects_negative_delay(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_fast(-1, lambda: None)

    def test_counts_as_pending(self, sim):
        sim.schedule_fast(10, lambda: None)
        assert sim.pending_events() == 1
        sim.run()
        assert sim.pending_events() == 0

    def test_args_are_passed(self, sim):
        seen = []
        sim.schedule_fast(1, lambda a, b: seen.append((a, b)), 1, "x")
        sim.run()
        assert seen == [(1, "x")]

    def test_survives_bounded_run_boundary(self, sim):
        fired = []
        sim.schedule_fast(100, fired.append, "late")
        sim.run(until=50)
        assert fired == []
        sim.run()
        assert fired == ["late"]

    def test_fast_events_visible_to_event_hooks(self, sim):
        seen = []
        sim.add_event_hook(lambda time, cb, args: seen.append(time))
        sim.schedule_fast(7, lambda: None)
        sim.run()
        assert seen == [7]


class TestBoundedRunChurn:
    """run(until=...) peeks instead of pop/re-pushing the first
    out-of-window event (the old boundary churn)."""

    def test_run_for_loop_preserves_entry(self, sim):
        fired = []
        sim.schedule(10_000, fired.append, "late")
        before = sim.queued_entries()
        for _ in range(50):
            sim.run_for(100)
        # The out-of-window event was never popped and re-pushed, and no
        # churn entries accumulated.
        assert sim.queued_entries() == before
        assert fired == []
        sim.run()
        assert fired == ["late"]

    def test_boundary_exact_time_still_fires(self, sim):
        fired = []
        sim.schedule(50, fired.append, "edge")
        sim.run(until=50)
        assert fired == ["edge"]
        assert sim.now == 50


class TestEventHandleOrderingInvariant:
    """Entries are (time, seq, handle) tuples with unique (time, seq):
    comparison never reaches the handle, so EventHandle defines no
    ordering.  This is a regression test for the removal of the dead
    EventHandle.__lt__ (it could mask a broken-invariant bug)."""

    def test_handles_are_not_orderable(self, sim):
        a = sim.schedule(1, lambda: None)
        b = sim.schedule(2, lambda: None)
        with pytest.raises(TypeError):
            a < b  # noqa: B015  (the comparison itself is the assertion)

    def test_mass_same_tick_fifo(self, sim):
        # If tuple comparison ever reached element 2, this would raise
        # TypeError (unorderable handles) or scramble FIFO order.
        order = []
        for tag in range(500):
            if tag % 2:
                sim.schedule(10, order.append, tag)
            else:
                sim.schedule_fast(10, order.append, tag)
        sim.run()
        assert order == list(range(500))


class TestTimerEdgeCases:
    """Satellite coverage: restart storms, expiry_time after stop,
    double start."""

    def test_restart_storm_leaves_single_pending_event(self, sim):
        timer = Timer(sim, lambda: None)
        timer.start(1_000_000)
        for _ in range(10_000):
            timer.restart(1_000_000)
        assert sim.pending_events() == 1
        # Compaction keeps the dead weight bounded: after peek_time()
        # (and the compaction a cancel triggers once cancelled entries
        # dominate) cancelled junk is less than half the heap.
        sim.peek_time()
        junk = sim.queued_entries() - sim.pending_events()
        assert junk <= max(COMPACT_MIN_CANCELLED,
                           sim.queued_entries() // 2 + 1)

    def test_restart_storm_fires_exactly_once(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        for _ in range(10_000):
            timer.restart(500)
        sim.run()
        assert fired == [500]
        assert sim.pending_events() == 0

    def test_expiry_time_none_after_stop(self, sim):
        timer = Timer(sim, lambda: None)
        timer.start(30)
        assert timer.expiry_time == 30
        timer.stop()
        assert timer.expiry_time is None
        assert not timer.running

    def test_expiry_time_none_after_fire(self, sim):
        timer = Timer(sim, lambda: None)
        timer.start(30)
        sim.run()
        assert timer.expiry_time is None

    def test_start_raises_when_running(self, sim):
        timer = Timer(sim, lambda: None)
        timer.start(5)
        with pytest.raises(SimulationError):
            timer.start(7)
        # ...but is fine again after stop() and after firing.
        timer.stop()
        timer.start(7)
        sim.run()
        timer.start(3)

    def test_restart_tracks_latest_deadline(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(100)
        for delay in (200, 50, 300):
            timer.restart(delay)
        assert timer.expiry_time == 300
        sim.run()
        assert fired == [300]

    def test_rejected_restart_leaves_timer_armed(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(100)
        with pytest.raises(SimulationError):
            timer.restart(-5)
        assert timer.running
        assert timer.expiry_time == 100
        sim.run()
        assert fired == [100]

    def test_rejected_start_leaves_timer_stopped(self, sim):
        timer = Timer(sim, lambda: None)
        with pytest.raises(SimulationError):
            timer.start(-1)
        assert not timer.running
        assert timer.expiry_time is None
        assert sim.pending_events() == 0
