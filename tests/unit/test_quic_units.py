"""QUIC internals: ACK-range merging, stream reassembly, loss math."""

from repro.net import Packet
from repro.transport.quic import PACKET_THRESHOLD, QuicHeader, QuicStream


class TestQuicStream:
    def test_in_order_frames(self):
        stream = QuicStream(1)
        assert stream.add_frame(0, 100, False) == 100
        assert stream.add_frame(100, 100, True) == 100
        assert stream.finished

    def test_out_of_order_held(self):
        stream = QuicStream(1)
        assert stream.add_frame(100, 100, True) == 0
        assert not stream.finished
        assert stream.add_frame(0, 100, False) == 200
        assert stream.finished

    def test_duplicate_frame_ignored(self):
        stream = QuicStream(1)
        stream.add_frame(0, 100, False)
        assert stream.add_frame(0, 100, False) == 0
        assert stream.delivered == 100

    def test_fin_requires_all_bytes(self):
        stream = QuicStream(1)
        stream.add_frame(200, 50, True)
        stream.add_frame(0, 100, False)
        assert not stream.finished  # hole at [100, 200)
        stream.add_frame(100, 100, False)
        assert stream.finished


class TestAckRangeMerging:
    def make_conn(self):
        # A connection detached from any network: packets are handed to
        # its stack directly.
        from repro.net import Network
        from repro.sim import Simulator, gbps
        from repro.transport import QuicStack
        sim = Simulator()
        net = Network(sim)
        a = net.add_host("a")
        b = net.add_host("b")
        net.connect(a, b, gbps(1), 0)
        net.install_routes()
        stack = QuicStack(a)
        return stack.connect(b.address, 443)

    def ack_ranges_after(self, pns):
        """Receive one stream frame in each packet number of ``pns``;
        returns the ranges of the last ACK sent."""
        conn = self.make_conn()
        sent = []
        conn.stack.send_packet = sent.append
        for pn in pns:
            header = QuicHeader(conn.connection_id, pn)
            header.stream_frames = [(1, 10 * pn, 10, False)]
            conn.stack.handle_packet(Packet(conn.remote_address,
                                            conn.stack.host.address, 50,
                                            "quic", header=header))
        return sent[-1].header.ack_ranges

    def test_contiguous_merge(self):
        assert self.ack_ranges_after((1, 2, 3)) == [(1, 4)]

    def test_gap_creates_second_range(self):
        assert self.ack_ranges_after((1, 5)) == [(1, 2), (5, 6)]

    def test_gap_fill_merges(self):
        assert self.ack_ranges_after((1, 5, 3, 2, 4)) == [(1, 6)]

    def test_out_of_order_arrivals(self):
        assert self.ack_ranges_after((10, 2, 7, 3, 9)) == [
            (2, 4), (7, 8), (9, 11)]

    def test_packet_threshold_constant(self):
        assert PACKET_THRESHOLD == 3
