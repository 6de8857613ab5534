"""Property tests: in-order prefix over ``Runs`` (as the MPTCP meta
receiver keeps it) and priority queue invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KIND_DATA, MtpHeader
from repro.net import Packet, PriorityQueue
from repro.transport.base import Runs

intervals = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1000),
              st.integers(min_value=1, max_value=100)),
    min_size=1, max_size=50)


class Prefix:
    """Meta bytes received in any order, delivered as an in-order prefix."""

    def __init__(self):
        self.runs = Runs()
        self.prefix = 0

    def add(self, start, end):
        """File ``[start, end)``; returns the newly in-order bytes."""
        self.runs.add(start, end)
        old, self.prefix = self.prefix, self.runs.advance(self.prefix)
        return self.prefix - old


class TestIntervalSet:
    @given(intervals)
    @settings(max_examples=200)
    def test_prefix_monotonic(self, spans):
        tracker = Prefix()
        previous = 0
        for start, length in spans:
            tracker.add(start, start + length)
            assert tracker.prefix >= previous
            previous = tracker.prefix

    @given(intervals)
    @settings(max_examples=200)
    def test_newly_ordered_sums_to_prefix(self, spans):
        tracker = Prefix()
        total_new = 0
        for start, length in spans:
            total_new += tracker.add(start, start + length)
        assert total_new == tracker.prefix

    @given(st.randoms(use_true_random=False),
           st.integers(min_value=1, max_value=50))
    @settings(max_examples=100)
    def test_full_coverage_any_order(self, rng, n_chunks):
        tracker = Prefix()
        chunks = [(i * 10, (i + 1) * 10) for i in range(n_chunks)]
        rng.shuffle(chunks)
        for start, end in chunks:
            tracker.add(start, end)
        assert tracker.prefix == n_chunks * 10
        assert tracker.runs.spans == []

    @given(intervals)
    @settings(max_examples=100)
    def test_duplicates_never_overcount(self, spans):
        tracker = Prefix()
        for start, length in spans:
            tracker.add(start, start + length)
        once = tracker.prefix
        for start, length in spans:
            assert tracker.add(start, start + length) == 0
        assert tracker.prefix == once


def _packet(priority):
    header = MtpHeader(KIND_DATA, 1, 2, 3, priority=priority,
                       msg_len_bytes=10, msg_len_pkts=1, pkt_len=10)
    return Packet(1, 2, 50, "mtp", header=header)


class TestPriorityQueueProperties:
    @given(st.lists(st.integers(min_value=-5, max_value=12),
                    min_size=1, max_size=64))
    @settings(max_examples=200)
    def test_dequeue_order_is_non_decreasing_band(self, priorities):
        queue = PriorityQueue(capacity=64, n_bands=8)
        for priority in priorities:
            queue.enqueue(_packet(priority), 0)
        clamp = lambda value: max(0, min(7, value))
        out = []
        while True:
            packet = queue.dequeue(0)
            if packet is None:
                break
            out.append(clamp(packet.header.priority))
        assert out == sorted(out)

    @given(st.lists(st.integers(min_value=0, max_value=7),
                    min_size=1, max_size=100))
    @settings(max_examples=200)
    def test_conservation(self, priorities):
        queue = PriorityQueue(capacity=32)
        offered = 0
        for priority in priorities:
            offered += 1
            queue.enqueue(_packet(priority), 0)
        assert queue.packets_enqueued + queue.packets_dropped == offered
        drained = 0
        while queue.dequeue(0) is not None:
            drained += 1
        assert drained == queue.packets_enqueued
