"""Links, ports, hosts, switches: delivery, timing, forwarding, offload hooks."""

from fractions import Fraction
import math

import pytest

from repro.analysis import PacketLedger
from repro.net import DropTailQueue, Host, Network, Packet
from repro.sim import gbps, microseconds, transmission_delay


class Sink:
    """Protocol handler that records received packets with timestamps."""

    def __init__(self, sim):
        self.sim = sim
        self.received = []

    def handle_packet(self, packet):
        self.received.append((self.sim.now, packet))


def two_hosts(sim, rate=gbps(10), delay=microseconds(1)):
    net = Network(sim)
    a = net.add_host("a")
    b = net.add_host("b")
    net.connect(a, b, rate, delay)
    net.install_routes()
    sink = Sink(sim)
    b.register_protocol("test", sink)
    return net, a, b, sink


class TestPointToPoint:
    def test_delivery(self, sim):
        net, a, b, sink = two_hosts(sim)
        packet = Packet(a.address, b.address, 1500, "test")
        a.send(packet)
        sim.run()
        assert len(sink.received) == 1
        assert sink.received[0][1] is packet

    def test_latency_is_tx_plus_propagation(self, sim):
        net, a, b, sink = two_hosts(sim, rate=gbps(10), delay=microseconds(1))
        a.send(Packet(a.address, b.address, 1500, "test"))
        sim.run()
        expected = transmission_delay(1500, gbps(10)) + microseconds(1)
        assert sink.received[0][0] == expected

    def test_back_to_back_packets_serialize(self, sim):
        net, a, b, sink = two_hosts(sim, rate=gbps(10), delay=0)
        for _ in range(3):
            a.send(Packet(a.address, b.address, 1500, "test"))
        sim.run()
        times = [time for time, _ in sink.received]
        tx = transmission_delay(1500, gbps(10))
        assert times == [tx, 2 * tx, 3 * tx]

    def test_queue_overflow_drops(self, sim):
        net = Network(sim)
        a = net.add_host("a")
        b = net.add_host("b")
        net.connect(a, b, gbps(1), 0, queue_factory=lambda: DropTailQueue(2))
        net.install_routes()
        sink = Sink(sim)
        b.register_protocol("test", sink)
        sent = sum(a.send(Packet(a.address, b.address, 1500, "test"))
                   for _ in range(10))
        sim.run()
        # One immediately in flight + 2 queued.
        assert sent == 3
        assert len(sink.received) == 3

    def test_unknown_protocol_counted(self, sim):
        ledger = sim.ledger = PacketLedger()
        net, a, b, sink = two_hosts(sim)
        a.send(Packet(a.address, b.address, 100, "mystery"))
        sim.run()
        assert ledger.drop_reasons == {"b:no_protocol": 1}

    def test_misaddressed_packet_ignored(self, sim):
        ledger = sim.ledger = PacketLedger()
        net, a, b, sink = two_hosts(sim)
        a.send(Packet(a.address, 9999, 100, "test"))
        sim.run()
        assert sink.received == []
        assert ledger.drop_reasons == {"b:misrouted": 1}


class CountingQueue(DropTailQueue):
    """Drop-tail queue that counts :meth:`dequeue` calls."""

    def __init__(self, capacity):
        super().__init__(capacity)
        self.dequeue_calls = 0

    def dequeue(self, now):
        self.dequeue_calls += 1
        return super().dequeue(now)


class TestHopWork:
    def test_dequeue_runs_once_per_transmitted_packet(self, sim):
        net = Network(sim)
        a = net.add_host("a")
        b = net.add_host("b")
        net.connect(a, b, gbps(10), microseconds(1),
                    queue_factory=lambda: CountingQueue(64))
        net.install_routes()
        sink = Sink(sim)
        b.register_protocol("test", sink)
        port = a.port_to(b)
        sent = 0
        # Bursts with idle gaps: the queue drains empty after each one.
        for burst in (1, 5, 2, 9):
            for _ in range(burst):
                a.send(Packet(a.address, b.address, 1500, "test"))
            sent += burst
            sim.run_for(microseconds(50))
        assert len(sink.received) == sent
        assert port.packets_transmitted == sent
        assert port.queue.dequeue_calls == sent


class TestSerializationDelay:
    SIZES = (0, 1, 40, 1500, 9000)

    @pytest.mark.parametrize("rate", [gbps(1), gbps(10), gbps(25),
                                      gbps(100), 3_000_000_007])
    def test_port_delay_equals_transmission_delay(self, sim, rate):
        net, a, b, _ = two_hosts(sim, rate=rate, delay=0)
        port = a.port_to(b)
        # Twice through every size: first use, then repeated use.
        for size in self.SIZES + self.SIZES:
            packet = Packet(a.address, b.address, 1, "test")
            packet.size = size  # Packet() refuses 0; trimming shrinks too
            start = sim.now
            a.send(packet)
            delay = port.busy_until - start
            assert delay == transmission_delay(size, rate)
            assert delay == math.ceil(Fraction(size * 8 * 10**9, rate))
            sim.run()


class TestSwitchForwarding:
    def build_line(self, sim):
        """a -- sw -- b"""
        net = Network(sim)
        a = net.add_host("a")
        b = net.add_host("b")
        sw = net.add_switch("sw")
        net.connect(a, sw, gbps(10), 0)
        net.connect(sw, b, gbps(10), 0)
        net.install_routes()
        sink = Sink(sim)
        b.register_protocol("test", sink)
        return net, a, b, sw, sink

    def test_forwarding(self, sim):
        net, a, b, sw, sink = self.build_line(sim)
        a.send(Packet(a.address, b.address, 1500, "test"))
        sim.run()
        assert len(sink.received) == 1
        assert sw.port_to(b).packets_transmitted == 1

    def test_no_route_counted(self, sim):
        ledger = sim.ledger = PacketLedger()
        net, a, b, sw, sink = self.build_line(sim)
        a.send(Packet(a.address, 12345, 100, "test"))
        sim.run()
        assert ledger.drop_reasons == {"sw:no_route": 1}

    def test_consuming_processor(self, sim):
        ledger = sim.ledger = PacketLedger()
        net, a, b, sw, sink = self.build_line(sim)

        class Consumer:
            def process(self, packet, switch, ingress):
                return []

        sw.add_processor(Consumer())
        a.send(Packet(a.address, b.address, 100, "test"))
        sim.run()
        assert sink.received == []
        assert ledger.consumed == 1

    def test_rewriting_processor(self, sim):
        net, a, b, sw, sink = self.build_line(sim)

        class Doubler:
            def process(self, packet, switch, ingress):
                clone = Packet(packet.src, packet.dst, packet.size,
                               packet.protocol)
                return [packet, clone]

        sw.add_processor(Doubler())
        a.send(Packet(a.address, b.address, 100, "test"))
        sim.run()
        assert len(sink.received) == 2


class TestPortLookups:
    def test_port_to_neighbor(self, sim):
        net, a, b, _ = two_hosts(sim)
        assert a.port_to(b).peer is b
        with pytest.raises(LookupError):
            a.port_to(a)

    def test_send_without_ports(self, sim):
        host = Host(sim, "lonely")
        with pytest.raises(RuntimeError):
            host.send(Packet(host.address, 2, 100, "test"))
