"""Monitors, packets, and selector bookkeeping units."""

import pytest

from repro.core import KIND_DATA, MtpHeader
from repro.net import (ECT_CAPABLE, ECT_CE, ECT_NOT_CAPABLE, Packet,
                       PeriodicSampler, RateMonitor)
from repro.offloads import MessageAwareSelector
from repro.sim import Simulator


class TestPacket:
    def test_defaults(self):
        packet = Packet(1, 2, 100, "test")
        assert packet.flow_label == (1, 2)
        assert packet.ecn == ECT_NOT_CAPABLE
        assert not packet.marked

    def test_mark_requires_capability(self):
        incapable = Packet(1, 2, 100, "t", ecn=ECT_NOT_CAPABLE)
        incapable.mark_ce()
        assert not incapable.marked
        capable = Packet(1, 2, 100, "t", ecn=ECT_CAPABLE)
        capable.mark_ce()
        assert capable.marked
        assert capable.ecn == ECT_CE

    def test_unique_uids(self):
        assert Packet(1, 2, 10, "t").uid != Packet(1, 2, 10, "t").uid

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            Packet(1, 2, 0, "t")


class TestRateMonitor:
    def test_bins_and_series(self):
        sim = Simulator()
        monitor = RateMonitor(sim, interval_ns=1000)
        monitor.record_bytes(125)  # 1000 bits in 1 us = 1 Gbps
        sim.schedule(2500, monitor.record_bytes, 125)
        sim.run()
        series = monitor.series_bps()
        assert series[0] == (0, 1e9)
        assert series[1] == (1000, 0.0)
        assert series[2] == (2000, 1e9)

    def test_mean_over_window(self):
        sim = Simulator()
        monitor = RateMonitor(sim, interval_ns=1000)
        monitor.record_bytes(1000)
        sim.schedule(1500, monitor.record_bytes, 1000)
        sim.run(until=2000)
        # 2000 bytes over 2 us = 8 Gbps.
        assert monitor.mean_bps(0, 2000) == pytest.approx(8e9)

    def test_mean_empty_window(self):
        sim = Simulator()
        monitor = RateMonitor(sim, interval_ns=1000)
        assert monitor.mean_bps(0, 0) == 0.0

    def test_series_padded_to_until(self):
        sim = Simulator()
        monitor = RateMonitor(sim, interval_ns=1000)
        monitor.record_bytes(100)
        series = monitor.series_bps(until_ns=5000)
        assert len(series) == 6

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            RateMonitor(Simulator(), 0)


class TestPeriodicSampler:
    def test_samples_on_period(self):
        sim = Simulator()
        values = iter(range(100))
        sampler = PeriodicSampler(sim, 1000, lambda: next(values))
        sim.run(until=3500)
        assert [time for time, _ in sampler.samples] == [0, 1000, 2000,
                                                         3000]

    def test_stop(self):
        sim = Simulator()
        sampler = PeriodicSampler(sim, 1000, lambda: 1.0)
        sim.schedule(1500, sampler.stop)
        sim.run(until=10_000)
        assert len(sampler.samples) == 2

    def test_max_value(self):
        sim = Simulator()
        series = iter([3.0, 9.0, 1.0])
        sampler = PeriodicSampler(sim, 1000, lambda: next(series))
        sim.run(until=2500)
        assert sampler.max_value() == 9.0
        unrun = PeriodicSampler(sim, 1000, lambda: 0.0)
        assert unrun.max_value(default=-1) == -1


def data_packet(src, msg_id, pkt_num, n_pkts, msg_bytes, size=1500):
    header = MtpHeader(KIND_DATA, 1, 2, msg_id, msg_len_bytes=msg_bytes,
                       msg_len_pkts=n_pkts, pkt_num=pkt_num, pkt_len=size)
    return Packet(src, 99, size, "mtp", header=header)


class FakePort:
    def __init__(self, backlog=0):
        self.queue = type("Q", (), {"bytes_queued": backlog})()


class TestMessageAwareSelector:
    def test_message_sticks_to_one_port(self):
        selector = MessageAwareSelector()
        ports = [FakePort(), FakePort()]
        chosen = {selector.select(data_packet(1, 5, pkt, 10, 15_000),
                                  ports, 0)
                  for pkt in range(10)}
        assert len(chosen) == 1

    def test_new_message_prefers_least_backlogged(self):
        selector = MessageAwareSelector()
        busy, idle = FakePort(backlog=100_000), FakePort(backlog=0)
        port = selector.select(data_packet(1, 7, 0, 1, 1500),
                               [busy, idle], 0)
        assert port is idle

    def test_assignment_accounts_future_bytes(self):
        selector = MessageAwareSelector()
        a, b = FakePort(), FakePort()
        # First elephant goes to a; its remaining bytes keep counting
        # against a, so the next message picks b.
        selector.select(data_packet(1, 1, 0, 100, 150_000), [a, b], 0)
        port = selector.select(data_packet(1, 2, 0, 1, 1500), [a, b], 0)
        assert port is b

    def test_state_released_after_last_packet(self):
        selector = MessageAwareSelector()
        a, b = FakePort(), FakePort()
        selector.select(data_packet(1, 1, 0, 2, 3000), [a, b], 0)
        selector.select(data_packet(1, 1, 1, 2, 3000), [a, b], 0)
        assert (1, 1) not in selector._assignments

    def test_non_mtp_falls_back_to_least_queued(self):
        selector = MessageAwareSelector()
        busy, idle = FakePort(backlog=5000), FakePort(backlog=10)
        packet = Packet(1, 2, 100, "tcp", header=object())
        assert selector.select(packet, [busy, idle], 0) is idle
