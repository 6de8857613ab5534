"""Metrics and isolation-policy units."""

import pytest

from repro.net import DropTailQueue, DRRQueue, FairShareQueue, Packet
from repro.policies import (ISOLATION_MODES, TrafficClassMap,
                            isolation_queue_factory)
from repro.stats import FctCollector, jain_fairness, percentile, summarize


class TestPercentile:
    def test_median_of_odd(self):
        assert percentile([1, 2, 3], 50) == 2

    def test_interpolation(self):
        assert percentile([0, 10], 50) == 5

    def test_extremes(self):
        values = list(range(100))
        assert percentile(values, 0) == 0
        assert percentile(values, 100) == 99

    def test_p99_of_uniform(self):
        values = list(range(1, 101))
        assert percentile(values, 99) == pytest.approx(99.01)

    def test_single_sample(self):
        assert percentile([7], 99) == 7

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_pct(self):
        with pytest.raises(ValueError):
            percentile([1], 101)


class TestJainFairness:
    def test_equal_shares(self):
        assert jain_fairness([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_single_taker(self):
        assert jain_fairness([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_eight_to_one(self):
        index = jain_fairness([80, 10])
        assert 0.5 < index < 0.7

    def test_all_zero(self):
        assert jain_fairness([0, 0]) == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            jain_fairness([])


class TestSummarize:
    def test_fields(self):
        summary = summarize([1, 2, 3, 4])
        assert summary["count"] == 4
        assert summary["mean"] == 2.5
        assert summary["max"] == 4

    def test_empty(self):
        assert summarize([]) == {"count": 0}


class TestFctCollector:
    def test_tail(self):
        fct = FctCollector()
        for value in range(1, 101):
            fct.record(value)
        assert fct.tail(99) == pytest.approx(percentile(range(1, 101), 99))

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            FctCollector().record(-1)


class TestTrafficClassMap:
    def test_explicit_assignments(self):
        tc_map = TrafficClassMap({"tenant1": 0, "tenant2": 1})
        assert tc_map.tc_of("tenant2") == 1

    def test_lazy_assignment(self):
        tc_map = TrafficClassMap()
        assert tc_map.tc_of("a") == 0
        assert tc_map.tc_of("b") == 1
        assert tc_map.tc_of("a") == 0

    def test_classify_packet(self):
        tc_map = TrafficClassMap()
        packet = Packet(1, 2, 100, "mtp", entity="tenantX")
        assert tc_map.classify(packet) == 0


class TestIsolationFactory:
    def test_modes_produce_right_queues(self):
        assert isinstance(isolation_queue_factory("shared", 10)(),
                          DropTailQueue)
        assert isinstance(isolation_queue_factory("separate", 10)(),
                          DRRQueue)
        assert isinstance(isolation_queue_factory("fair_share", 10)(),
                          FairShareQueue)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            isolation_queue_factory("bogus", 10)

    def test_modes_constant_is_complete(self):
        for mode in ISOLATION_MODES:
            assert isolation_queue_factory(mode, 10)() is not None
