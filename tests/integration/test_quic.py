"""QUIC-like transport: streams, loss recovery, single congestion context."""

import pytest

from repro.net import DropTailQueue, Network, RandomDropProcessor
from repro.sim import gbps, mbps, microseconds, milliseconds
from repro.transport import ConnectionCallbacks, QuicConnection, QuicStack


def quic_pair(sim, rate=gbps(1), delay=microseconds(5), queue_capacity=256):
    net = Network(sim)
    a = net.add_host("a")
    b = net.add_host("b")
    net.connect(a, b, rate, delay,
                queue_factory=lambda: DropTailQueue(queue_capacity))
    net.install_routes()
    return net, a, b, QuicStack(a), QuicStack(b)


class TestHandshakeAndTransfer:
    def test_one_rtt_handshake(self, sim):
        delay = microseconds(20)
        net, a, b, stack_a, stack_b = quic_pair(sim, delay=delay)
        established = []
        stack_b.listen(443, lambda conn: ConnectionCallbacks())
        stack_a.connect(b.address, 443, ConnectionCallbacks(
            on_connected=lambda c: established.append(sim.now)))
        sim.run(until=milliseconds(5))
        assert established
        assert established[0] >= 2 * delay
        assert established[0] < 4 * delay  # 1 RTT, not 2

    @pytest.mark.parametrize("nbytes", [1, 1460, 50_000, 1_000_000])
    def test_stream_transfer(self, sim, nbytes):
        net, a, b, stack_a, stack_b = quic_pair(sim)
        received = [0]
        stack_b.listen(443, lambda conn: ConnectionCallbacks(
            on_data=lambda c, n: received.__setitem__(0, received[0] + n)))
        stack_a.connect(b.address, 443, ConnectionCallbacks(
            on_connected=lambda c: c.send_message(nbytes)))
        sim.run(until=milliseconds(100))
        assert received[0] == nbytes

    def test_many_streams_one_connection(self, sim):
        net, a, b, stack_a, stack_b = quic_pair(sim)
        finished = []

        def accept(conn):
            conn.on_stream_finished = \
                lambda c, stream: finished.append(stream.stream_id)
            return ConnectionCallbacks()

        stack_b.listen(443, accept)
        stack_a.connect(b.address, 443, ConnectionCallbacks(
            on_connected=lambda c: [c.send_message(10_000)
                                    for _ in range(20)]))
        sim.run(until=milliseconds(100))
        assert len(finished) == 20


class TestStreamIndependence:
    def test_mouse_not_blocked_by_elephant(self, sim):
        """Unlike a TCP stream, a small QUIC stream finishes while a large
        one is still in flight."""
        net, a, b, stack_a, stack_b = quic_pair(sim, rate=mbps(100))
        finish_order = []

        def accept(conn):
            conn.on_stream_finished = \
                lambda c, stream: finish_order.append(stream.delivered)
            return ConnectionCallbacks()

        stack_b.listen(443, accept)

        def on_connected(conn):
            conn.send_message(1_000_000)  # elephant stream
            conn.send_message(2_000)      # mouse behind it

        stack_a.connect(b.address, 443,
                        ConnectionCallbacks(on_connected=on_connected))
        sim.run(until=milliseconds(200))
        assert finish_order[0] == 2_000

    def test_loss_on_one_stream_does_not_stall_others(self, sim, seeds):
        net = Network(sim)
        a = net.add_host("a")
        b = net.add_host("b")
        sw = net.add_switch("sw")
        queue = lambda: DropTailQueue(256)
        net.connect(a, sw, mbps(500), microseconds(5), queue_factory=queue)
        net.connect(sw, b, mbps(500), microseconds(5), queue_factory=queue)
        net.install_routes()
        sw.add_processor(RandomDropProcessor(0.05, seeds.stream("q")))
        stack_a, stack_b = QuicStack(a), QuicStack(b)
        finished = []

        def accept(conn):
            conn.on_stream_finished = \
                lambda c, stream: finished.append(stream.stream_id)
            return ConnectionCallbacks()

        stack_b.listen(443, accept)
        stack_a.connect(b.address, 443, ConnectionCallbacks(
            on_connected=lambda c: [c.send_message(20_000)
                                    for _ in range(10)]))
        sim.run(until=milliseconds(500))
        assert len(finished) == 10


class TestReordering:
    def test_frame_before_its_predecessor(self, sim):
        """The second frame of a stream overtakes the first: nothing is
        delivered until the hole fills, then all of it at once, and the
        stream finishes exactly once."""
        net, a, b, stack_a, stack_b = quic_pair(sim)
        deliveries = []
        finished = []

        def accept(conn):
            conn.on_stream_finished = \
                lambda c, stream: finished.append(stream.delivered)
            return ConnectionCallbacks(
                on_data=lambda c, n: deliveries.append(n))

        stack_b.listen(443, accept)
        held = []
        send_packet = stack_a.send_packet

        def overtake(packet):
            frames = packet.header.stream_frames
            if frames and frames[0][1:3] == (0, 1460):
                held.append(packet)  # the stream's first frame waits
                return True
            sent = send_packet(packet)
            while held:
                send_packet(held.pop())
            return sent

        stack_a.send_packet = overtake
        stack_a.connect(b.address, 443, ConnectionCallbacks(
            on_connected=lambda c: c.send_message(2 * 1460)))
        sim.run(until=milliseconds(5))
        assert deliveries == [2 * 1460]
        assert finished == [2 * 1460]


class TestLossRecovery:
    def test_recovers_through_tiny_queue(self, sim):
        net, a, b, stack_a, stack_b = quic_pair(sim, rate=mbps(100),
                                                queue_capacity=8)
        received = [0]
        stack_b.listen(443, lambda conn: ConnectionCallbacks(
            on_data=lambda c, n: received.__setitem__(0, received[0] + n)))
        conn = stack_a.connect(b.address, 443, ConnectionCallbacks(
            on_connected=lambda c: c.send_message(400_000)))
        sim.run(until=milliseconds(500))
        assert received[0] == 400_000
        assert conn.packets_lost > 0

    def test_receiver_keeps_only_spans_an_ack_can_carry(self, sim):
        # 51 losses leave 18 gaps in the server's received packet
        # numbers; an ACK reports only the last 8 spans.
        net, a, b, stack_a, stack_b = quic_pair(sim, rate=mbps(100),
                                                queue_capacity=8)
        servers, received = [], [0]

        def accept(conn):
            servers.append(conn)
            return ConnectionCallbacks(
                on_data=lambda c, n: received.__setitem__(0, received[0] + n))

        stack_b.listen(443, accept)
        conn = stack_a.connect(b.address, 443, ConnectionCallbacks(
            on_connected=lambda c: c.send_message(2_000_000)))
        sim.run(until=milliseconds(2000))
        assert received[0] == 2_000_000
        assert conn.packets_lost == 51
        assert sim.events_executed == 4702
        assert len(servers[0]._received.spans) == 8

    def test_packet_numbers_monotone(self, sim):
        net, a, b, stack_a, stack_b = quic_pair(sim, rate=mbps(100),
                                                queue_capacity=8)
        stack_b.listen(443, lambda conn: ConnectionCallbacks())
        conn = stack_a.connect(b.address, 443, ConnectionCallbacks(
            on_connected=lambda c: c.send_message(200_000)))
        sim.run(until=milliseconds(300))
        # Every transmission consumed a fresh packet number.
        assert conn._next_packet_number == conn.packets_sent

    def test_handshake_retry_on_lost_initial(self, sim):
        net = Network(sim)
        a = net.add_host("a")
        b = net.add_host("b")
        sw = net.add_switch("sw")
        net.connect(a, sw, gbps(1), microseconds(5))
        net.connect(sw, b, gbps(1), microseconds(5))
        net.install_routes()

        class DropFirst:
            def __init__(self):
                self.dropped = False

            def process(self, packet, switch, ingress):
                if not self.dropped and packet.protocol == "quic":
                    self.dropped = True
                    return []
                return None

        sw.add_processor(DropFirst())
        stack_a, stack_b = QuicStack(a), QuicStack(b)
        established = []
        stack_b.listen(443, lambda conn: ConnectionCallbacks())
        stack_a.connect(b.address, 443, ConnectionCallbacks(
            on_connected=lambda c: established.append(c)))
        sim.run(until=milliseconds(50))
        assert established


    def test_loss_timer_backs_off_during_outage(self, sim, monkeypatch):
        net = Network(sim)
        a = net.add_host("a")
        b = net.add_host("b")
        link = net.connect(a, b, gbps(1), microseconds(5))
        net.install_routes()
        fires = []
        on_timeout = QuicConnection._on_loss_timeout

        def counted(conn):
            if conn.is_client:
                fires.append(sim.now)
            on_timeout(conn)

        monkeypatch.setattr(QuicConnection, "_on_loss_timeout", counted)
        received = [0]
        stack_a, stack_b = QuicStack(a), QuicStack(b)
        stack_b.listen(443, lambda conn: ConnectionCallbacks(
            on_data=lambda c, n: received.__setitem__(0, received[0] + n)))
        conn = stack_a.connect(b.address, 443, ConnectionCallbacks(
            on_connected=lambda c: c.send_message(1_000_000)))
        sim.at(milliseconds(1), link.set_down)
        sim.at(milliseconds(51), link.set_up)
        sim.run(until=milliseconds(51))
        assert conn.rtt.backoff > 0
        assert 0 < len(fires) <= 10
        sim.run(until=milliseconds(200))
        assert received[0] == 1_000_000
        assert conn.rtt.backoff == 0  # acknowledged progress reset it


class TestSingleCongestionContext:
    def test_streams_share_one_window(self, sim):
        """Table 1: QUIC streams are independent for delivery but share one
        congestion context — no per-resource windows."""
        net, a, b, stack_a, stack_b = quic_pair(sim)
        stack_b.listen(443, lambda conn: ConnectionCallbacks())
        conn = stack_a.connect(b.address, 443, ConnectionCallbacks(
            on_connected=lambda c: [c.send_message(100_000)
                                    for _ in range(5)]))
        sim.run(until=milliseconds(50))
        assert len(conn._send_queues) == 5
        # One cwnd; there is simply no per-stream or per-path window state.
        assert isinstance(conn.cwnd, int)
        assert not hasattr(conn, "per_stream_cwnd")

    def test_validation(self, sim):
        net, a, b, stack_a, stack_b = quic_pair(sim)
        stack_b.listen(443, lambda conn: ConnectionCallbacks())
        conn = stack_a.connect(b.address, 443)
        with pytest.raises(ValueError):
            conn.send_stream(999, 100)
        stream = conn.open_stream()
        with pytest.raises(ValueError):
            conn.send_stream(stream, 0)
