"""TCP end-to-end behaviour: handshake, transfer, recovery, flow control."""

import pytest

from repro.analysis import PacketLedger
from repro.net import DropTailQueue, Network
from repro.sim import Simulator, gbps, mbps, microseconds, milliseconds
from repro.transport import ConnectionCallbacks, TcpStack
from tests.util import TransferApp, run_transfer, tcp_pair


class TestHandshake:
    def test_connection_establishes(self, sim):
        net, a, b, stack_a, stack_b = tcp_pair(sim)
        established = []
        stack_b.listen(80, lambda conn: ConnectionCallbacks())
        stack_a.connect(
            b.address, 80,
            ConnectionCallbacks(on_connected=lambda c: established.append(c)))
        sim.run(until=milliseconds(5))
        assert len(established) == 1
        assert established[0].established

    def test_handshake_takes_at_least_one_rtt(self, sim):
        delay = microseconds(10)
        net, a, b, stack_a, stack_b = tcp_pair(sim, delay=delay)
        app = TransferApp(sim)
        stack_b.listen(80, lambda conn: app.receiver_callbacks())
        stack_a.connect(b.address, 80, app.sender_callbacks(100))
        sim.run(until=milliseconds(5))
        assert app.connected_at is not None
        assert app.connected_at >= 2 * delay  # SYN + SYN-ACK

    def test_syn_to_closed_port_is_ignored(self, sim):
        ledger = sim.ledger = PacketLedger()
        net, a, b, stack_a, stack_b = tcp_pair(sim)
        conn = stack_a.connect(b.address, 9999, ConnectionCallbacks())
        sim.run(until=milliseconds(1))
        assert not conn.established
        # b's stack received the SYN and sent nothing back.
        assert ledger.delivered >= 1
        assert b.port_to(a).packets_transmitted == 0


class TestTransfer:
    @pytest.mark.parametrize("nbytes", [1, 100, 1460, 1461, 16 * 1024,
                                        1_000_000])
    def test_all_bytes_delivered(self, sim, nbytes):
        net, a, b, stack_a, stack_b = tcp_pair(sim)
        app = run_transfer(sim, stack_a, stack_b, b.address, nbytes,
                           until=milliseconds(200))
        assert app.received == nbytes
        assert app.closed_at is not None

    def test_long_transfer_fills_link(self, sim):
        rate = gbps(10)
        nbytes = 4_000_000
        net, a, b, stack_a, stack_b = tcp_pair(sim, rate=rate,
                                               delay=microseconds(2))
        app = run_transfer(sim, stack_a, stack_b, b.address, nbytes,
                           until=milliseconds(100))
        assert app.received == nbytes
        duration = app.closed_at - app.connected_at
        goodput = nbytes * 8 * 1e9 / duration
        assert goodput > 0.6 * rate

    def test_two_connections_share_link(self, sim):
        net, a, b, stack_a, stack_b = tcp_pair(sim, rate=gbps(1))
        apps = []
        for port in (80, 81):
            app = TransferApp(sim)
            stack_b.listen(port, lambda conn, app=app: app.receiver_callbacks())
            stack_a.connect(b.address, port, app.sender_callbacks(500_000))
            apps.append(app)
        sim.run(until=milliseconds(100))
        assert all(app.received == 500_000 for app in apps)


class TestLossRecovery:
    def test_completes_despite_tiny_queue(self, sim):
        net, a, b, stack_a, stack_b = tcp_pair(sim, rate=mbps(100),
                                               queue_capacity=8)
        app = run_transfer(sim, stack_a, stack_b, b.address, 500_000,
                           until=milliseconds(500))
        assert app.received == 500_000

    def test_retransmissions_happen_under_loss(self, sim):
        net = Network(sim)
        a = net.add_host("a")
        b = net.add_host("b")
        net.connect(a, b, mbps(100), microseconds(5),
                    queue_factory=lambda: DropTailQueue(4))
        net.install_routes()
        stack_a, stack_b = TcpStack(a), TcpStack(b)
        app = TransferApp(sim)
        stack_b.listen(80, lambda conn: app.receiver_callbacks())
        sender = stack_a.connect(b.address, 80, app.sender_callbacks(500_000))
        sim.run(until=milliseconds(500))
        assert app.received == 500_000
        assert sender.retransmissions > 0

    def test_cwnd_reduced_after_loss(self, sim):
        net, a, b, stack_a, stack_b = tcp_pair(sim, rate=mbps(100),
                                               queue_capacity=8)
        app = TransferApp(sim)
        stack_b.listen(80, lambda conn: app.receiver_callbacks())
        sender = stack_a.connect(b.address, 80,
                                 app.sender_callbacks(2_000_000, close=False))
        sim.run(until=milliseconds(100))
        assert sender.retransmissions > 0
        assert sender.ssthresh < 1 << 48


class TestFlowControl:
    def test_sender_respects_closed_window(self, sim):
        net, a, b, stack_a, stack_b = tcp_pair(sim)
        app = TransferApp(sim)
        stack_b.listen(80, lambda conn: app.receiver_callbacks(),
                       recv_buffer=8 * 1460)
        stack_a.connect(b.address, 80, app.sender_callbacks(1_000_000))
        sim.run(until=milliseconds(50))
        # Receiver never consumed: only about the buffer size arrives.
        assert app.received <= 9 * 1460

    def test_consume_reopens_window(self, sim):
        net, a, b, stack_a, stack_b = tcp_pair(sim)
        received_conn = []

        def accept(conn):
            received_conn.append(conn)
            return ConnectionCallbacks()

        stack_b.listen(80, accept, recv_buffer=8 * 1460)
        stack_a.connect(b.address, 80,
                        TransferApp(sim).sender_callbacks(100_000))
        sim.run(until=milliseconds(10))
        conn = received_conn[0]
        stalled = conn.bytes_delivered
        assert stalled < 100_000
        # Drain everything read so far; transfer should resume and finish.

        def drain():
            if conn.unread_bytes:
                conn.consume(conn.unread_bytes)
            if conn.bytes_delivered < 100_000:
                sim.schedule(microseconds(50), drain)

        drain()
        sim.run(until=milliseconds(100))
        assert conn.bytes_delivered == 100_000


class TestDctcp:
    def test_transfer_completes_with_ecn(self, sim):
        net, a, b, stack_a, stack_b = tcp_pair(sim, rate=gbps(1),
                                               queue_capacity=128,
                                               ecn_threshold=20)
        app = run_transfer(sim, stack_a, stack_b, b.address, 2_000_000,
                           variant="dctcp", until=milliseconds(100))
        assert app.received == 2_000_000

    def test_dctcp_keeps_queue_shorter_than_reno(self, sim):
        def max_queue(variant):
            local_sim = Simulator()
            net, a, b, stack_a, stack_b = tcp_pair(
                local_sim, rate=gbps(1), delay=microseconds(5),
                queue_capacity=256, ecn_threshold=20)
            bottleneck = a.port_to(b)
            peak = [0]
            original = bottleneck.queue.enqueue

            def tracking_enqueue(packet, now):
                result = original(packet, now)
                peak[0] = max(peak[0], len(bottleneck.queue))
                return result

            bottleneck.queue.enqueue = tracking_enqueue
            run_transfer(local_sim, stack_a, stack_b, b.address, 3_000_000,
                         variant=variant, until=milliseconds(100))
            return peak[0]

        assert max_queue("dctcp") < max_queue("reno")

    def test_alpha_rises_under_persistent_marking(self, sim):
        net, a, b, stack_a, stack_b = tcp_pair(sim, rate=mbps(500),
                                               queue_capacity=256,
                                               ecn_threshold=5)
        app = TransferApp(sim)
        stack_b.listen(80, lambda conn: app.receiver_callbacks(),
                       variant="dctcp")
        sender = stack_a.connect(b.address, 80,
                                 app.sender_callbacks(5_000_000, close=False),
                                 variant="dctcp")
        sim.run(until=milliseconds(50))
        assert sender.alpha > 0.01


class TestRttEstimation:
    def test_srtt_close_to_path_rtt(self, sim):
        delay = microseconds(50)
        net, a, b, stack_a, stack_b = tcp_pair(sim, delay=delay)
        app = TransferApp(sim)
        stack_b.listen(80, lambda conn: app.receiver_callbacks())
        sender = stack_a.connect(b.address, 80,
                                 app.sender_callbacks(200_000))
        sim.run(until=milliseconds(50))
        assert sender.rtt.srtt is not None
        assert sender.rtt.srtt >= 2 * delay
        assert sender.rtt.srtt < 10 * 2 * delay
