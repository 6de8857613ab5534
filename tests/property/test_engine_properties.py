"""Property tests: event-kernel ordering and cancellation invariants.

A :class:`Timer` is the kernel's only cancellable event, so cancellation
is exercised by stopping and re-arming timers.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.engine import COMPACT_MIN_CANCELLED, Timer


def armed(sim, delay, callback):
    """A timer restarted ``delay`` ns from now."""
    timer = Timer(sim, callback)
    timer.restart(delay)
    return timer


#: Operations: ("schedule", delay) arms a timer, ("cancel", index) stops
#: an earlier one.
operations = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"),
                  st.integers(min_value=0, max_value=10_000)),
        st.tuples(st.just("cancel"),
                  st.integers(min_value=0, max_value=100))),
    min_size=1, max_size=60)


@given(operations)
@settings(max_examples=300)
def test_events_fire_in_nondecreasing_time_order(ops):
    sim = Simulator()
    fired = []
    timers = []
    for op in ops:
        if op[0] == "schedule":
            delay = op[1]
            timers.append(
                armed(sim, delay, lambda d=delay: fired.append(d)))
        elif timers:
            timers[op[1] % len(timers)].stop()
    sim.run()
    assert fired == sorted(fired)


@given(operations)
@settings(max_examples=300)
def test_cancelled_events_never_fire(ops):
    sim = Simulator()
    fired = []
    timers = []
    cancelled = set()
    for op in ops:
        if op[0] == "schedule":
            index = len(timers)
            timers.append(
                armed(sim, op[1], lambda i=index: fired.append(i)))
        elif timers:
            index = op[1] % len(timers)
            timers[index].stop()
            cancelled.add(index)
    sim.run()
    assert not (set(fired) & cancelled)
    assert set(fired) | cancelled == set(range(len(timers)))


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                max_size=40),
       st.integers(min_value=0, max_value=1000))
@settings(max_examples=200)
def test_bounded_run_is_exact(delays, boundary):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(d))
    sim.run(until=boundary)
    assert all(delay <= boundary for delay in fired)
    assert sorted(fired) == sorted(d for d in delays if d <= boundary)
    sim.run()
    assert sorted(fired) == sorted(delays)


@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                max_size=30))
@settings(max_examples=200)
def test_same_tick_fifo_order(ticks):
    sim = Simulator()
    fired = []
    for index, tick in enumerate(ticks):
        sim.schedule(tick, lambda i=index: fired.append(i))
    sim.run()
    # Within one tick, scheduling order is preserved.
    by_tick = {}
    for index in fired:
        by_tick.setdefault(ticks[index], []).append(index)
    for indices in by_tick.values():
        assert indices == sorted(indices)


@st.composite
def compaction_plans(draw):
    """More than ``2 * COMPACT_MIN_CANCELLED`` events, most cancelled.

    Every timer whose index is not a multiple of ``keep_every`` is
    doomed: stopped before the run or by a purge timer that fires first
    at t=0.  With at most a third of the timers kept and few plain
    scheduled events, the doomed ones dominate the heap when the purge
    returns, so ``run`` compacts while it is running.  Bounded steps,
    stops between steps and a stop issued by each timer's callback ride
    along.
    """
    limit = COMPACT_MIN_CANCELLED
    count = draw(st.integers(min_value=2 * limit + 1, max_value=3 * limit))
    times = st.integers(min_value=0, max_value=5_000)
    indices = st.integers(min_value=0, max_value=count - 1)
    delays = draw(st.lists(times, min_size=count, max_size=count))
    keep_every = draw(st.integers(min_value=3, max_value=6))
    in_purge = draw(st.lists(st.booleans(), min_size=count,
                             max_size=count))
    victims = draw(st.lists(st.one_of(st.none(), indices),
                            min_size=count, max_size=count))
    #: (timers armed before it, delay)
    fast = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=count), times),
        max_size=limit // 2))
    steps = sorted(draw(st.lists(st.integers(min_value=0, max_value=6_000),
                                 max_size=4)))
    step_cancels = draw(st.lists(st.lists(indices, max_size=8),
                                 min_size=len(steps), max_size=len(steps)))
    return (delays, keep_every, in_purge, victims, sorted(fast), steps,
            step_cancels)


@given(compaction_plans())
@settings(max_examples=60, deadline=None)
def test_compaction_inside_run_keeps_time_seq_order(plan):
    delays, keep_every, in_purge, victims, fast, steps, step_cancels = plan
    sim = Simulator()
    scheduled = []  # (time, seq) of every event, in scheduling order
    cancelled = set()  # seqs cancelled while still queued
    fired = []
    timers = []  # (timer, seq)

    def cancel(index):
        timer, seq = timers[index]
        if timer.running:
            cancelled.add(seq)
        timer.stop()

    def fire(seq, doomed):
        fired.append((sim.now, seq))
        for index in doomed:
            cancel(index)

    def arm(delay, doomed):
        seq = len(scheduled)
        scheduled.append((delay, seq))
        return armed(sim, delay, lambda: fire(seq, doomed)), seq

    def schedule(delay):
        seq = len(scheduled)
        scheduled.append((delay, seq))
        sim.schedule(delay, fire, seq, ())

    doomed = [index for index in range(len(delays))
              if index % keep_every]
    arm(0, [index for index in doomed if in_purge[index]])
    pending_fast = list(fast)
    for index, delay in enumerate(delays):
        while pending_fast and pending_fast[0][0] <= index:
            schedule(pending_fast.pop(0)[1])
        victim = victims[index]
        timers.append(arm(delay, () if victim is None else (victim,)))
    for _, delay in pending_fast:
        schedule(delay)
    for index in doomed:
        if not in_purge[index]:
            cancel(index)

    for until, extra in zip(steps, step_cancels):
        sim.run(until=until)
        assert sim.now == until
        assert all(time <= until for time, _ in fired)
        for index in extra:
            cancel(index)
    sim.run()

    assert fired == sorted(entry for entry in scheduled
                           if entry[1] not in cancelled)
    assert sim.pending_events() == 0
    assert sim._queue == []


#: Kernel operations: arm a batch of timers, schedule, stop one or every
#: batch timer, restart and stop among three reused timers, bounded run.
#: Indices pick among earlier batch timers / the three timers; batches
#: let stops pass the compaction threshold.
kernel_operations = st.lists(
    st.one_of(
        st.tuples(st.just("arm"), st.integers(0, 2_000),
                  st.integers(1, 8)),
        st.tuples(st.just("schedule"), st.integers(0, 2_000)),
        st.tuples(st.just("cancel"), st.integers(0, 500)),
        st.tuples(st.just("purge")),
        st.tuples(st.just("restart"), st.integers(0, 2),
                  st.integers(0, 2_000)),
        st.tuples(st.just("stop"), st.integers(0, 2)),
        st.tuples(st.just("run"), st.integers(0, 1_500))),
    min_size=1, max_size=250)


def live_heap_entries(sim):
    """Brute-force count: scheduled entries plus live timer entries."""
    return sum(1 for entry in sim._queue
               if entry[2] is not None or entry[3]._seq == entry[1])


@given(kernel_operations)
@settings(max_examples=200, deadline=None)
def test_pending_events_counts_live_heap_entries(ops):
    sim = Simulator()
    batch = []
    timers = [Timer(sim, lambda: None) for _ in range(3)]
    for op in ops:
        kind = op[0]
        if kind == "arm":
            batch.extend(armed(sim, op[1] + i, lambda: None)
                         for i in range(op[2]))
        elif kind == "schedule":
            sim.schedule(op[1], lambda: None)
        elif kind == "cancel":
            if batch:
                batch[op[1] % len(batch)].stop()
        elif kind == "purge":
            for timer in batch:
                timer.stop()
        elif kind == "restart":
            timers[op[1]].restart(op[2])
        elif kind == "stop":
            timers[op[1]].stop()
        else:
            sim.run(until=sim.now + op[1])
        assert sim.pending_events() == live_heap_entries(sim)
    sim.run()
    assert sim.pending_events() == live_heap_entries(sim) == 0
