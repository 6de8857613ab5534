"""Pathlet registry, feedback sources, and header annotation."""

import pytest

from repro.core import (FB_DELAY, FB_QUEUE, FB_RATE, DelayFeedbackSource,
                        EcnFeedbackSource, KIND_DATA, MtpHeader,
                        PathletRegistry, QueueFeedbackSource,
                        RateFeedbackSource, SelectiveFeedbackSource,
                        UNKNOWN_PATHLET)
from repro.net import ECT_CAPABLE, DropTailQueue, Network, Packet
from repro.sim import gbps, microseconds, milliseconds


def linked_hosts(sim):
    net = Network(sim)
    a = net.add_host("a")
    b = net.add_host("b")
    net.connect(a, b, gbps(10), microseconds(1),
                queue_factory=lambda: DropTailQueue(64, 8))
    net.install_routes()
    return net, a, b, a.port_to(b)


def mtp_packet(src, dst, marked=False):
    header = MtpHeader(KIND_DATA, 1, 2, 3, msg_len_bytes=100,
                       msg_len_pkts=1, pkt_len=100)
    packet = Packet(src, dst, 140, "mtp", header=header, ecn=ECT_CAPABLE)
    if marked:
        packet.mark_ce()
    return packet


class TestRegistry:
    def test_unique_ids(self, sim):
        net, a, b, port = linked_hosts(sim)
        registry = PathletRegistry(sim)
        first = registry.register(port, EcnFeedbackSource())
        second = registry.register(b.port_to(a), EcnFeedbackSource())
        assert first != second
        assert len(registry) == 2

    def test_pathlet_of(self, sim):
        net, a, b, port = linked_hosts(sim)
        registry = PathletRegistry(sim)
        path_id = registry.register(port, EcnFeedbackSource())
        assert registry.pathlet_of(port) == path_id
        assert registry.pathlet_of(b.port_to(a)) == UNKNOWN_PATHLET

    def test_double_register_rejected(self, sim):
        net, a, b, port = linked_hosts(sim)
        registry = PathletRegistry(sim)
        registry.register(port, EcnFeedbackSource())
        with pytest.raises(ValueError):
            registry.register(port, EcnFeedbackSource())

    def test_port_with_a_transmit_hook_rejected(self, sim):
        # One annotator per port: a second registry cannot stack another.
        net, a, b, port = linked_hosts(sim)
        PathletRegistry(sim).register(port, EcnFeedbackSource())
        with pytest.raises(ValueError, match="transmit hook"):
            PathletRegistry(sim).register(port, EcnFeedbackSource())

    def test_grouping_ports_into_one_pathlet(self, sim):
        net, a, b, port = linked_hosts(sim)
        registry = PathletRegistry(sim)
        shared = registry.register(port, EcnFeedbackSource())
        registry.register(b.port_to(a), EcnFeedbackSource(),
                          pathlet_id=shared)
        assert registry.pathlet_of(b.port_to(a)) == shared
        assert len(registry.annotators(shared)) == 2


class TestAnnotation:
    def test_data_packets_annotated(self, sim):
        net, a, b, port = linked_hosts(sim)
        registry = PathletRegistry(sim)
        path_id = registry.register(port, EcnFeedbackSource(8))
        packet = mtp_packet(a.address, b.address)
        port.send(packet)
        sim.run(until=milliseconds(1))
        assert packet.header.path_feedback
        assert packet.header.path_feedback[0][0] == path_id

    def test_non_mtp_untouched(self, sim):
        net, a, b, port = linked_hosts(sim)
        registry = PathletRegistry(sim)
        registry.register(port, EcnFeedbackSource())
        packet = Packet(a.address, b.address, 100, "tcp", header=object())
        port.send(packet)
        sim.run(until=milliseconds(1))  # must not crash on foreign headers

    def test_tc_classifier_applied(self, sim):
        net, a, b, port = linked_hosts(sim)
        registry = PathletRegistry(sim)
        registry.register(port, EcnFeedbackSource(),
                          tc_classifier=lambda packet: 7)
        packet = mtp_packet(a.address, b.address)
        port.send(packet)
        sim.run(until=milliseconds(1))
        assert packet.header.path_feedback[0][1] == 7


class TestFeedbackSources:
    def test_ecn_reflects_packet_mark(self, sim):
        net, a, b, port = linked_hosts(sim)
        source = EcnFeedbackSource(threshold=None)
        marked = source.generate(port, mtp_packet(1, 2, marked=True), 0)
        clean = source.generate(port, mtp_packet(1, 2, marked=False), 0)
        assert marked.value == 1.0
        assert clean.value == 0.0

    def test_queue_source_reports_occupancy(self, sim):
        net, a, b, port = linked_hosts(sim)
        source = QueueFeedbackSource()
        feedback = source.generate(port, mtp_packet(1, 2), 0)
        assert feedback.type == FB_QUEUE
        assert feedback.value == float(len(port.queue))

    def test_delay_source_scales_with_queue(self, sim):
        net, a, b, port = linked_hosts(sim)
        source = DelayFeedbackSource()
        empty = source.generate(port, mtp_packet(1, 2), 0)
        for _ in range(10):
            port.queue.enqueue(mtp_packet(1, 2), 0)
        full = source.generate(port, mtp_packet(1, 2), 0)
        assert full.value > empty.value
        assert full.type == FB_DELAY

    def test_rate_source_tracks_capacity(self, sim):
        net, a, b, port = linked_hosts(sim)
        source = RateFeedbackSource(sim, port)
        feedback = source.generate(port, mtp_packet(1, 2), 0)
        assert feedback.type == FB_RATE
        assert 0 < feedback.value <= port.rate_bps

    def test_rate_source_decreases_under_overload(self, sim):
        net, a, b, port = linked_hosts(sim)
        source = RateFeedbackSource(sim, port,
                                    update_interval_ns=microseconds(5))

        def blast():
            # Offer ~2x the link rate so the queue sees sustained overload.
            for _ in range(6):
                port.send(mtp_packet(a.address, b.address))
            sim.schedule(350, blast)  # 6 x 1120 bits / 350 ns ~ 19 Gbps

        blast()
        sim.run(until=microseconds(300))
        feedback = source.generate(port, mtp_packet(1, 2), sim.now)
        assert feedback.value < 0.9 * port.rate_bps


class TestSelectiveFeedback:
    def test_suppresses_idle_samples(self, sim):
        net, a, b, port = linked_hosts(sim)
        source = SelectiveFeedbackSource(
            EcnFeedbackSource(threshold=None),
            keepalive_interval_ns=microseconds(100))
        first = source.generate(port, mtp_packet(1, 2), now=0)
        second = source.generate(port, mtp_packet(1, 2), now=10)
        assert first is not None       # keep-alive on first sample
        assert second is None          # suppressed: idle and not due
        assert source.suppressed == 1

    def test_congested_samples_always_pass(self, sim):
        net, a, b, port = linked_hosts(sim)
        source = SelectiveFeedbackSource(EcnFeedbackSource(threshold=None))
        source.generate(port, mtp_packet(1, 2), now=0)
        hot = source.generate(port, mtp_packet(1, 2, marked=True), now=1)
        assert hot is not None and hot.value == 1.0

    def test_keepalive_period(self, sim):
        net, a, b, port = linked_hosts(sim)
        source = SelectiveFeedbackSource(
            EcnFeedbackSource(threshold=None),
            keepalive_interval_ns=100)
        assert source.generate(port, mtp_packet(1, 2), now=0) is not None
        assert source.generate(port, mtp_packet(1, 2), now=50) is None
        assert source.generate(port, mtp_packet(1, 2), now=100) is not None

    def test_reduces_header_bytes_end_to_end(self, sim):
        net, a, b, port = linked_hosts(sim)
        registry = PathletRegistry(sim)
        registry.register(port, SelectiveFeedbackSource(
            EcnFeedbackSource(None), keepalive_interval_ns=milliseconds(10)))
        packets = [mtp_packet(a.address, b.address) for _ in range(5)]
        for packet in packets:
            port.send(packet)
        sim.run(until=milliseconds(1))
        annotated = sum(1 for packet in packets
                        if packet.header.path_feedback)
        assert annotated == 1  # only the keep-alive carried feedback
