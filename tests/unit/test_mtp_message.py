"""Message fragmentation and send/receive state tracking."""

import pytest

from repro.core import Message, ReceiveState, SendState, fragment_sizes
from repro.core.message import MTP_MAX_PAYLOAD


class TestFragmentation:
    def test_single_packet(self):
        assert fragment_sizes(100) == [100]

    def test_exact_multiple(self):
        sizes = fragment_sizes(MTP_MAX_PAYLOAD * 3)
        assert sizes == [MTP_MAX_PAYLOAD] * 3

    def test_tail_packet(self):
        sizes = fragment_sizes(MTP_MAX_PAYLOAD + 1)
        assert sizes == [MTP_MAX_PAYLOAD, 1]

    def test_sum_preserved(self):
        for size in (1, 999, 14_600, 1_000_000):
            assert sum(fragment_sizes(size)) == size

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            fragment_sizes(0)

    def test_custom_payload_size(self):
        assert fragment_sizes(250, max_payload=100) == [100, 100, 50]


class TestMessage:
    def test_unique_ids(self):
        assert Message(10).msg_id != Message(10).msg_id

    def test_packet_offsets(self):
        message = Message(250, max_payload=100)
        assert [message.packet_offset(i) for i in range(3)] == [0, 100, 200]

    def test_offset_out_of_range(self):
        message = Message(100)
        with pytest.raises(IndexError):
            message.packet_offset(1)

    def test_defaults(self):
        message = Message(100)
        assert message.priority == 0
        assert message.tc == "default"
        assert message.payload is None


class TestSendState:
    def test_complete_when_all_acked(self):
        state = SendState(Message(250, max_payload=100), 1, 2)
        assert not state.complete
        for pkt in range(3):
            assert state.mark_acked(pkt)
        assert state.complete

    def test_duplicate_ack_ignored(self):
        state = SendState(Message(100), 1, 2)
        assert state.mark_acked(0)
        assert not state.mark_acked(0)

    def test_unsent_counter(self):
        state = SendState(Message(300, max_payload=100), 1, 2)
        assert state.unsent_packets() == 3
        state.next_to_send = 2
        assert state.unsent_packets() == 1


class TestReceiveState:
    def test_completion(self):
        state = ReceiveState(src_address=1, msg_id=5, msg_len_bytes=200,
                             msg_len_pkts=2, priority=0, first_seen=0)
        state.add_packet(0, 100)
        assert not state.complete
        state.add_packet(1, 100)
        assert state.complete
        assert state.bytes_received == 200

    def test_out_of_order_arrival(self):
        state = ReceiveState(1, 5, 300, 3, 0, 0)
        state.add_packet(2, 100)
        state.add_packet(0, 100)
        assert state.missing_packets() == [1]

    def test_duplicate_packet_not_double_counted(self):
        state = ReceiveState(1, 5, 200, 2, 0, 0)
        assert state.add_packet(0, 100)
        assert not state.add_packet(0, 100)
        assert state.bytes_received == 100

    def test_out_of_range_packet_rejected(self):
        state = ReceiveState(1, 5, 200, 2, 0, 0)
        with pytest.raises(ValueError):
            state.add_packet(7, 100)
