"""RED queue units."""

import pytest

from repro.net import ECT_CAPABLE, Packet, RedQueue


def make_packet(ecn=ECT_CAPABLE):
    return Packet(1, 2, 1500, "t", ecn=ecn)


class TestRedQueue:
    def test_below_min_threshold_clean(self):
        queue = RedQueue(capacity=100, min_threshold=20, max_threshold=60)
        for _ in range(10):
            assert queue.enqueue(make_packet(), 0)
        assert queue.ecn_marked == 0
        assert queue.red_dropped == 0

    def test_marks_between_thresholds(self):
        queue = RedQueue(capacity=100, min_threshold=5, max_threshold=20,
                         max_probability=1.0, weight=1.0)
        packets = [make_packet() for _ in range(30)]
        for packet in packets:
            queue.enqueue(packet, 0)
        assert queue.ecn_marked > 0

    def test_drops_when_not_ecn_capable(self):
        queue = RedQueue(capacity=100, min_threshold=2, max_threshold=4,
                         max_probability=1.0, weight=1.0)
        accepted = sum(queue.enqueue(make_packet(ecn=0), 0)
                       for _ in range(30))
        assert queue.red_dropped > 0
        assert accepted < 30

    def test_avg_queue_smoothing(self):
        queue = RedQueue(capacity=100, min_threshold=50, max_threshold=90,
                         weight=0.1)
        for _ in range(10):
            queue.enqueue(make_packet(), 0)
        # EWMA lags the instantaneous length.
        assert queue.avg_queue < len(queue)

    def test_hard_capacity(self):
        queue = RedQueue(capacity=5, min_threshold=4, max_threshold=5)
        for _ in range(10):
            queue.enqueue(make_packet(), 0)
        assert len(queue) <= 5

    def test_validation(self):
        with pytest.raises(ValueError):
            RedQueue(capacity=10, min_threshold=0, max_threshold=5)
        with pytest.raises(ValueError):
            RedQueue(capacity=10, min_threshold=6, max_threshold=5)
        with pytest.raises(ValueError):
            RedQueue(capacity=10, min_threshold=2, max_threshold=20)
