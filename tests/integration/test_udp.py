"""UDP end-to-end: datagrams, fragmentation, loss, no congestion control."""

import pytest

from repro.analysis import PacketLedger
from repro.net import DropTailQueue, Network
from repro.sim import gbps, mbps, microseconds, milliseconds
from repro.transport import UdpStack


def udp_pair(sim, rate=gbps(10), delay=microseconds(5), queue_capacity=256):
    net = Network(sim)
    a = net.add_host("a")
    b = net.add_host("b")
    net.connect(a, b, rate, delay,
                queue_factory=lambda: DropTailQueue(queue_capacity))
    net.install_routes()
    return net, a, b, UdpStack(a), UdpStack(b)


class TestDatagrams:
    def test_single_fragment_delivery(self, sim):
        net, a, b, stack_a, stack_b = udp_pair(sim)
        inbox = []
        stack_b.socket(port=53, on_datagram=lambda sock, src, size:
                       inbox.append((src, size)))
        sender = stack_a.socket()
        sender.sendto(b.address, 53, 512)
        sim.run(until=milliseconds(1))
        assert inbox == [(a.address, 512)]

    def test_fragmented_datagram_reassembled(self, sim):
        net, a, b, stack_a, stack_b = udp_pair(sim)
        inbox = []
        sock = stack_b.socket(port=53, on_datagram=lambda s, src, size:
                              inbox.append(size))
        stack_a.socket().sendto(b.address, 53, 10_000)
        sim.run(until=milliseconds(1))
        assert inbox == [10_000]
        assert sock.datagrams_received == 1

    def test_many_datagrams_counted(self, sim):
        net, a, b, stack_a, stack_b = udp_pair(sim)
        sock = stack_b.socket(port=53)
        sender = stack_a.socket()
        for _ in range(25):
            sender.sendto(b.address, 53, 1000)
        sim.run(until=milliseconds(5))
        assert sock.datagrams_received == 25
        assert sock.bytes_received == 25_000

    def test_unbound_port_unreachable(self, sim):
        ledger = sim.ledger = PacketLedger()
        net, a, b, stack_a, stack_b = udp_pair(sim)
        stack_a.socket().sendto(b.address, 9, 100)
        sim.run(until=milliseconds(1))
        # b's stack received the datagram, had no socket for it, and
        # sent nothing back.
        assert ledger.delivered == 1
        assert b.port_to(a).packets_transmitted == 0

    def test_duplicate_bind_rejected(self, sim):
        net, a, b, stack_a, stack_b = udp_pair(sim)
        stack_b.socket(port=53)
        with pytest.raises(ValueError):
            stack_b.socket(port=53)

    def test_invalid_size_rejected(self, sim):
        net, a, b, stack_a, stack_b = udp_pair(sim)
        sender = stack_a.socket()
        with pytest.raises(ValueError):
            sender.sendto(b.address, 53, 0)


class TestLossBehaviour:
    def test_partial_datagram_expires(self, sim):
        # Tiny queue: large datagrams lose fragments and expire, no retx.
        net, a, b, stack_a, stack_b = udp_pair(sim, rate=mbps(100),
                                               queue_capacity=4)
        sock = stack_b.socket(port=53)
        sender = stack_a.socket()
        for _ in range(5):
            sender.sendto(b.address, 53, 50_000)
        sim.run(until=milliseconds(100))
        assert sock.datagrams_expired > 0
        assert (sock.datagrams_received
                + sock.datagrams_expired) <= sender.datagrams_sent

    def test_no_congestion_response(self, sim):
        """UDP keeps blasting into a full queue (Table 1: no CC)."""
        net, a, b, stack_a, stack_b = udp_pair(sim, rate=mbps(100),
                                               queue_capacity=8)
        sock = stack_b.socket(port=53)
        sender = stack_a.socket()
        for _ in range(200):
            sender.sendto(b.address, 53, 1400)
        sim.run(until=milliseconds(50))
        # Sender never slowed down: everything was sent immediately, and
        # the queue dropped the overflow.
        assert sender.datagrams_sent == 200
        assert sock.datagrams_received < 200


class TestBidirectional:
    def test_request_response(self, sim):
        net, a, b, stack_a, stack_b = udp_pair(sim)
        replies = []

        def server_handler(sock, src, size):
            sock.sendto(src, client_sock.port, 2 * size)

        server_sock = stack_b.socket(port=53, on_datagram=server_handler)
        client_sock = stack_a.socket(
            on_datagram=lambda sock, src, size: replies.append(size))
        client_sock.sendto(b.address, 53, 300)
        sim.run(until=milliseconds(1))
        assert replies == [600]
