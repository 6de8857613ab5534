"""TCP recovery and stream-semantics details."""

from repro.net import (BlackoutProcessor, DropTailQueue, Network)
from repro.net.packet import Packet
from repro.sim import gbps, mbps, microseconds, milliseconds
from repro.transport import ConnectionCallbacks, TcpStack
from repro.transport.tcp import FLAG_ACK, TcpHeader
from tests.util import TransferApp, receive_segment, tcp_pair


class TestGoBackN:
    def test_recovers_from_total_window_loss(self, sim):
        """A blackout kills a full window; go-back-N resends it all."""
        net = Network(sim)
        a = net.add_host("a")
        b = net.add_host("b")
        sw = net.add_switch("sw")
        queue = lambda: DropTailQueue(256)
        net.connect(a, sw, mbps(500), microseconds(5), queue_factory=queue)
        net.connect(sw, b, mbps(500), microseconds(5), queue_factory=queue)
        net.install_routes()
        blackout = BlackoutProcessor(
            sim, [(microseconds(20), microseconds(600))])
        sw.add_processor(blackout)
        received = [0]
        TcpStack(b).listen(80, lambda conn: ConnectionCallbacks(
            on_data=lambda c, n: received.__setitem__(0, received[0] + n)))
        sender = TcpStack(a).connect(b.address, 80, ConnectionCallbacks(
            on_connected=lambda c: c.send(300_000)))
        sim.run(until=milliseconds(100))
        assert received[0] == 300_000
        assert sender.timeouts >= 1
        assert sender.retransmissions > 0

    def test_pipe_accounting_returns_to_zero(self, sim):
        net, a, b, stack_a, stack_b = tcp_pair(sim, rate=mbps(100),
                                               queue_capacity=8)
        app = TransferApp(sim)
        stack_b.listen(80, lambda conn: app.receiver_callbacks())
        sender = stack_a.connect(b.address, 80,
                                 app.sender_callbacks(300_000))
        sim.run(until=milliseconds(500))
        assert app.received == 300_000
        assert sender.flight_size == 0
        assert sender.outstanding == 0


class TestFinHandling:
    def test_fin_retransmitted_when_lost(self, sim):
        net = Network(sim)
        a = net.add_host("a")
        b = net.add_host("b")
        sw = net.add_switch("sw")
        net.connect(a, sw, gbps(1), microseconds(5))
        net.connect(sw, b, gbps(1), microseconds(5))
        net.install_routes()

        class DropFirstFin:
            def __init__(self):
                self.dropped = False

            def process(self, packet, switch, ingress):
                header = packet.header
                if (not self.dropped and getattr(header, "flags", 0) & 0x4):
                    self.dropped = True
                    return []
                return None

        sw.add_processor(DropFirstFin())
        closed = []
        TcpStack(b).listen(80, lambda conn: ConnectionCallbacks(
            on_close=lambda c: closed.append(c)))
        finished = []
        conn = TcpStack(a).connect(b.address, 80, ConnectionCallbacks(
            on_connected=lambda c: (c.send(1000), c.close())))
        conn.on_finished = finished.append
        sim.run(until=milliseconds(50))
        assert closed, "receiver never saw the (retransmitted) FIN"
        assert finished, "sender never finished its close"

    def test_data_before_fin_all_delivered(self, sim):
        net, a, b, stack_a, stack_b = tcp_pair(sim)
        app = TransferApp(sim)
        stack_b.listen(80, lambda conn: app.receiver_callbacks())
        stack_a.connect(b.address, 80, app.sender_callbacks(123_456))
        sim.run(until=milliseconds(100))
        assert app.received == 123_456
        assert app.closed_at is not None


class TestStreamSemantics:
    def test_bidirectional_transfer(self, sim):
        net, a, b, stack_a, stack_b = tcp_pair(sim)
        received = {"a": 0, "b": 0}

        def accept(conn):
            conn.send(50_000)  # server pushes too
            return ConnectionCallbacks(
                on_data=lambda c, n: received.__setitem__(
                    "b", received["b"] + n))

        stack_b.listen(80, accept)
        stack_a.connect(
            b.address, 80,
            ConnectionCallbacks(
                on_connected=lambda c: c.send(80_000),
                on_data=lambda c, n: received.__setitem__(
                    "a", received["a"] + n)))
        sim.run(until=milliseconds(100))
        assert received == {"a": 50_000, "b": 80_000}

    def test_head_of_line_blocking(self, sim):
        """The stream delivers strictly in order: a later 'message' cannot
        overtake an earlier one (the Table-1 independence failure)."""
        net, a, b, stack_a, stack_b = tcp_pair(sim, rate=mbps(100))
        deliveries = []
        stack_b.listen(80, lambda conn: ConnectionCallbacks(
            on_data=lambda c, n: deliveries.append(n)))

        def on_connected(conn):
            conn.send(500_000)  # elephant "message"
            conn.send(100)      # urgent "message" behind it

        stack_a.connect(b.address, 80,
                        ConnectionCallbacks(on_connected=on_connected))
        sim.run(until=milliseconds(100))
        assert sum(deliveries) == 500_100
        # The last delivered bytes include the urgent 100: it arrived last.
        consumed = 0
        for chunk in deliveries:
            consumed += chunk
        assert consumed == 500_100

    def test_many_parallel_connections(self, sim):
        net, a, b, stack_a, stack_b = tcp_pair(sim, rate=gbps(10))
        apps = []
        for port in range(80, 90):
            app = TransferApp(sim)
            stack_b.listen(port,
                           lambda conn, app=app: app.receiver_callbacks())
            stack_a.connect(b.address, port, app.sender_callbacks(100_000))
            apps.append(app)
        sim.run(until=milliseconds(200))
        assert all(app.received == 100_000 for app in apps)


class TestWindowUpdates:
    def test_stalled_sender_resumes_after_consume(self, sim):
        net, a, b, stack_a, stack_b = tcp_pair(sim)
        conns = []

        def accept(conn):
            conns.append(conn)
            return ConnectionCallbacks()

        stack_b.listen(80, accept, recv_buffer=4 * 1460)
        stack_a.connect(b.address, 80, ConnectionCallbacks(
            on_connected=lambda c: c.send(60_000)))
        sim.run(until=milliseconds(20))
        receiver = conns[0]
        stalled_at = receiver.bytes_delivered
        assert stalled_at < 60_000
        # One consume opens the window; progress resumes without any
        # sender-side action.
        receiver.consume(receiver.unread_bytes)
        sim.run(until=milliseconds(40))
        assert receiver.bytes_delivered > stalled_at


class TestDuplicateAcks:
    def ten_segments_outstanding(self, sim):
        net, a, b, stack_a, stack_b = tcp_pair(sim)
        stack_b.listen(80, lambda conn: ConnectionCallbacks())
        sender = stack_a.connect(b.address, 80)
        sim.run(until=microseconds(30))
        assert sender.established
        sender.send(10 * 1460)
        # Nothing has been acknowledged yet: the ACKs below arrive first.
        assert sender.flight_size == sender.cwnd == 14_600
        return sender

    def test_window_updates_are_not_duplicate_acks(self, sim):
        """RFC 5681 §2(e): an ACK that changes the advertised window is a
        window update, so three of them do not start fast recovery."""
        sender = self.ten_segments_outstanding(sim)
        for segments in (20, 30, 40):
            receive_segment(sender, 1, wnd=segments * 1460)
        assert sender.peer_wnd == 40 * 1460
        assert not sender._in_recovery
        assert sender.cwnd == sender.flight_size == 14_600

    def test_three_duplicate_acks_start_fast_recovery(self, sim):
        sender = self.ten_segments_outstanding(sim)
        for _ in range(3):
            receive_segment(sender, 1, wnd=sender.peer_wnd)
        assert sender._in_recovery
        assert sender.cwnd == 11_680  # ssthresh 7,300 + 3 MSS
        assert sender.flight_size == 13_140  # the head is marked lost


class TestUnacceptableAck:
    def test_ack_of_unsent_data_is_dropped_and_reacked(self, sim):
        """RFC 9293 §3.10.7.4: an ACK above ``snd_nxt`` changes nothing."""
        net, a, b, stack_a, stack_b = tcp_pair(sim)
        app = TransferApp(sim)
        stack_b.listen(80, lambda conn: app.receiver_callbacks())
        sender = stack_a.connect(b.address, 80,
                                 app.sender_callbacks(200_000))
        sim.run(until=microseconds(40))
        assert sender.established and sender.outstanding > 0
        before = (sender.snd_una, sender.snd_nxt, sender.flight_size,
                  dict(sender._segments))
        sent = []
        transmit = sender._transmit

        def logged(header, data_bytes):
            sent.append(header)
            transmit(header, data_bytes)

        sender._transmit = logged
        bogus = TcpHeader(80, sender.local_port, ack=sender.snd_nxt + 14_600,
                          flags=FLAG_ACK, wnd=1 << 30)
        sender.handle_segment(Packet(b.address, a.address, 40, "tcp",
                                     header=bogus), bogus)
        assert (sender.snd_una, sender.snd_nxt, sender.flight_size,
                sender._segments) == before
        assert [h.flags for h in sent] == [FLAG_ACK]
        assert sent[0].payload_len == 0
        sim.run(until=milliseconds(10))
        assert app.received == 200_000
        assert sender.outstanding == 0
