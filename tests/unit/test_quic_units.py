"""QUIC internals: ACK-range merging, stream reassembly, loss math."""

from repro.transport.quic import PACKET_THRESHOLD, QuicStream


class TestQuicStream:
    def test_in_order_frames(self):
        stream = QuicStream(1)
        assert stream.add_frame(0, 100, False) == 100
        assert stream.add_frame(100, 100, True) == 100
        assert stream.finished

    def test_out_of_order_held(self):
        stream = QuicStream(1)
        assert stream.add_frame(100, 100, True) == 0
        assert not stream.fin_seen
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
        # A connection detached from any network: we only poke the
        # receive-range bookkeeping.
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

    def test_contiguous_merge(self):
        conn = self.make_conn()
        for pn in (1, 2, 3):
            conn._record_received(pn)
        assert conn._recv_ranges == [[1, 3]]

    def test_gap_creates_second_range(self):
        conn = self.make_conn()
        conn._record_received(1)
        conn._record_received(5)
        assert conn._recv_ranges == [[1, 1], [5, 5]]

    def test_gap_fill_merges(self):
        conn = self.make_conn()
        for pn in (1, 5, 3, 2, 4):
            conn._record_received(pn)
        assert conn._recv_ranges == [[1, 5]]

    def test_out_of_order_arrivals(self):
        conn = self.make_conn()
        for pn in (10, 2, 7, 3, 9):
            conn._record_received(pn)
        assert conn._recv_ranges == [[2, 3], [7, 7], [9, 10]]

    def test_packet_threshold_constant(self):
        assert PACKET_THRESHOLD == 3
