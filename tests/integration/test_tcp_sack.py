"""TCP SACK: receiver range generation, sender loss inference, recovery."""

from repro.sim import mbps, microseconds, milliseconds
from repro.transport import ConnectionCallbacks
from tests.util import TransferApp, receive_segment, tcp_pair


def sack_blocks(receiver, ooo):
    """Deliver ``{seq: length}`` out-of-order segments to ``receiver``;
    returns the SACK blocks of the ACK it sends next."""
    for seq, length in ooo.items():
        receive_segment(receiver, seq, length)
    sent = []
    receiver.stack.send_packet = sent.append
    receiver._send_ack()
    return sent[-1].header.sack_blocks


class TestSackRanges:
    def build_receiver(self, sim):
        net, a, b, stack_a, stack_b = tcp_pair(sim)
        conns = []

        def accept(conn):
            conns.append(conn)
            return ConnectionCallbacks()

        stack_b.listen(80, accept)
        stack_a.connect(b.address, 80, ConnectionCallbacks())
        sim.run(until=milliseconds(1))
        return conns[0]

    def test_no_ooo_no_ranges(self, sim):
        receiver = self.build_receiver(sim)
        assert sack_blocks(receiver, {}) == []

    def test_single_hole(self, sim):
        receiver = self.build_receiver(sim)
        # A contiguous out-of-order run.
        assert sack_blocks(receiver, {100: 50, 150: 50}) == [(100, 200)]

    def test_multiple_runs(self, sim):
        receiver = self.build_receiver(sim)
        assert sack_blocks(receiver, {100: 50, 300: 50, 400: 50}) == [
            (100, 150), (300, 350), (400, 450)]

    def test_block_cap(self, sim):
        receiver = self.build_receiver(sim)
        # Ten runs above ``rcv_nxt`` (1 after the handshake).
        ooo = {i * 100: 10 for i in range(1, 11)}
        assert len(sack_blocks(receiver, ooo)) == 4
        assert len(receiver._ooo.spans) == 10


class TestLossInference:
    def test_sack_speeds_recovery_of_many_holes(self, sim):
        """A burst loss of many segments recovers without per-hole RTTs."""
        net, a, b, stack_a, stack_b = tcp_pair(sim, rate=mbps(500),
                                               queue_capacity=16)
        app = TransferApp(sim)
        stack_b.listen(80, lambda conn: app.receiver_callbacks())
        sender = stack_a.connect(b.address, 80,
                                 app.sender_callbacks(2_000_000))
        sim.run(until=milliseconds(200))
        assert app.received == 2_000_000
        # The slow-start overshoot loses dozens of segments; with SACK the
        # whole transfer still finishes in well under the no-SACK time.
        assert app.closed_at < milliseconds(60)

    def test_sacked_segments_not_retransmitted(self, sim):
        net, a, b, stack_a, stack_b = tcp_pair(sim, rate=mbps(200),
                                               queue_capacity=8)
        app = TransferApp(sim)
        stack_b.listen(80, lambda conn: app.receiver_callbacks())
        sender = stack_a.connect(b.address, 80,
                                 app.sender_callbacks(500_000))
        sim.run(until=milliseconds(300))
        assert app.received == 500_000
        # Retransmissions should be in the same ballpark as actual drops,
        # not a go-back-N multiple of them.
        bottleneck = a.port_to(b)
        drops = bottleneck.queue.packets_dropped
        assert sender.retransmissions <= 2 * drops + 10

    def test_pipe_never_negative(self, sim):
        net, a, b, stack_a, stack_b = tcp_pair(sim, rate=mbps(100),
                                               queue_capacity=4)
        app = TransferApp(sim)
        stack_b.listen(80, lambda conn: app.receiver_callbacks())
        sender = stack_a.connect(b.address, 80,
                                 app.sender_callbacks(300_000))

        def check():
            assert sender.flight_size >= 0, "pipe went negative"
            sim.schedule(microseconds(50), check)

        check()
        sim.run(until=milliseconds(300))
        assert app.received == 300_000

    def test_scoreboard_exact_after_every_ack(self, sim):
        """The pipe is exactly the bytes neither lost nor SACKed, and the
        seq index is the table's keys in order, after every ACK."""
        net, a, b, stack_a, stack_b = tcp_pair(sim, rate=mbps(100),
                                               queue_capacity=4)
        app = TransferApp(sim)
        stack_b.listen(80, lambda conn: app.receiver_callbacks())
        sender = stack_a.connect(b.address, 80,
                                 app.sender_callbacks(300_000))
        handle_ack = sender._handle_ack
        sack_acks = []

        def checked(header):
            handle_ack(header)
            if header.sack_blocks:
                sack_acks.append(header)
            segments = sender._segments
            assert sender._pipe == sum(
                entry[0] for entry in segments.values()
                if not entry[3] and not entry[4])
            assert sender._seg_order == sorted(segments)

        sender._handle_ack = checked
        sim.run(until=milliseconds(300))
        assert app.received == 300_000
        assert sack_acks and sender.retransmissions > 0
