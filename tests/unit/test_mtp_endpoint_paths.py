"""The MTP endpoint's per-packet shortcuts keep MTP's behaviour.

* All drains of one ACK share a blocked-route memo; an ACK entry that
  releases window clears it, so what that window admits still goes out
  in the same ACK.
* A one-packet message completes on arrival without partial state, and
  duplicates and malformed packets are handled as before.
* The completed-message memory is a FIFO of the last
  ``COMPLETED_MEMORY`` keys.
"""

import pytest

from repro.core import KIND_ACK, KIND_DATA, MtpHeader, MtpStack
from repro.core.endpoint import COMPLETED_MEMORY
from repro.net import Network, Packet
from repro.sim import Simulator

DST = 101
TC = "default"


class Credits:
    """Stands in for the pathlet CC: each route sends on packet credits.

    Sending a packet takes one credit of its route, and releasing it on
    an ACK or NACK gives the credit back.
    """

    def __init__(self):
        self.credit = {}

    def can_send(self, dst_address, tc, nbytes):
        return self.credit.get((dst_address, tc), 0) > 0

    def path_for(self, dst_address):
        return dst_address

    def charge(self, path, tc, nbytes):
        self.credit[(path, tc)] -= 1

    def uncharge(self, path, tc, nbytes):
        self.credit[(path, tc)] += 1

    def on_ack(self, dst_address, tc, feedback_path, acked_bytes, rtt_ns,
               now):
        pass

    def failed_pathlets(self, tc):
        return ()


def sender_on_credits(credit):
    """An endpoint whose route to ``DST`` has ``credit`` packets of window;
    returns it and the list of ``(msg_id, pkt_num)`` it sends."""
    host = Network(Simulator()).add_host("a")
    endpoint = MtpStack(host).endpoint()
    endpoint.cc = Credits()
    endpoint.cc.credit[(DST, TC)] = credit
    sent = []
    endpoint.stack.send_packet = lambda packet: sent.append(
        (packet.header.msg_id, packet.header.pkt_num))
    return endpoint, sent


def ack(endpoint, sack=(), nack=()):
    """Deliver one ACK carrying ``sack`` and ``nack`` entries."""
    header = MtpHeader(KIND_ACK, 9, endpoint.port, 0)
    header.sack.extend(sack)
    header.nack.extend(nack)
    endpoint.stack.handle_packet(
        Packet(DST, endpoint.stack.host.address, 64, "mtp", header))


def blocked_callback_case(endpoint, sent):
    """Two one-packet messages fill a two-packet window and a third, Q,
    waits behind them.  The first one's completion sends C, so its drain
    spends the first released credit on Q and finds C's route blocked.
    Returns the ids of the two messages and of Q, and a list that the
    callback fills with C's id.
    """
    late = []
    first = endpoint.send_message(
        DST, 9, 100, on_complete=lambda state: late.append(
            endpoint.send_message(DST, 9, 100).message.msg_id))
    second = endpoint.send_message(DST, 9, 100)
    queued = endpoint.send_message(DST, 9, 100)
    assert [msg_id for msg_id, _ in sent] == [first.message.msg_id,
                                              second.message.msg_id]
    return first.message.msg_id, second.message.msg_id, \
        queued.message.msg_id, late


class TestSharedBlockedMemo:
    def test_second_sack_entry_reopens_blocked_route(self):
        endpoint, sent = sender_on_credits(2)
        first, second, queued, late = blocked_callback_case(endpoint, sent)
        ack(endpoint, sack=[(first, 0), (second, 0)])
        # The callback's drain sent Q and found the route full; the
        # second entry's release must let C out in this same ACK.
        assert sent[2:] == [(queued, 0), (late[0], 0)]
        assert endpoint.outstanding_messages == 2

    def test_nack_entry_reopens_blocked_route(self):
        endpoint, sent = sender_on_credits(2)
        first, second, queued, late = blocked_callback_case(endpoint, sent)
        ack(endpoint, sack=[(first, 0)], nack=[(second, 0)])
        # The NACK released the second message's credit: its repair goes
        # out in this same ACK, ahead of C, which stays queued.
        assert sent[2:] == [(queued, 0), (second, 0)]
        assert endpoint.retransmissions == 1
        assert endpoint.nack_repairs == 1
        assert not endpoint._retx_queue
        assert list(endpoint._ready[0]) == late


def receiver():
    """A bound endpoint; returns it, its deliveries and the ACKs it sends
    as ``(msg_id, pkt_num)``."""
    host = Network(Simulator()).add_host("b")
    delivered = []
    endpoint = MtpStack(host).endpoint(
        port=100, on_message=lambda ep, msg: delivered.append(msg))
    acks = []
    endpoint.stack.send_packet = lambda packet: acks.extend(
        packet.header.sack)
    return endpoint, delivered, acks


def data(endpoint, msg_id, pkt_num, n_packets, pkt_len=500):
    header = MtpHeader(KIND_DATA, 9, endpoint.port, msg_id, 2,
                       n_packets * pkt_len, n_packets, pkt_num,
                       pkt_num * pkt_len, pkt_len)
    header.payload = ("chunk", msg_id)
    endpoint.stack.handle_packet(
        Packet(7, endpoint.stack.host.address, 40 + pkt_len, "mtp", header))


class TestOnePacketReceive:
    def test_delivered_once_without_partial_state(self):
        endpoint, delivered, acks = receiver()
        data(endpoint, 5, 0, 1)
        assert endpoint._incoming == {}
        assert acks == [(5, 0)]
        assert [(msg.src_address, msg.src_port, msg.msg_id, msg.size,
                 msg.priority, msg.payload, msg.latency_ns)
                for msg in delivered] == [(7, 9, 5, 500, 2, ("chunk", 5), 0)]
        assert (endpoint.messages_delivered, endpoint.bytes_delivered) \
            == (1, 500)

    def test_duplicate_reacked_not_redelivered(self):
        endpoint, delivered, acks = receiver()
        data(endpoint, 5, 0, 1)
        data(endpoint, 5, 0, 1)
        assert acks == [(5, 0), (5, 0)]
        assert len(delivered) == 1
        assert endpoint.bytes_delivered == 500
        assert endpoint._incoming == {}

    def test_packet_outside_message_rejected(self):
        endpoint, delivered, acks = receiver()
        with pytest.raises(ValueError):
            data(endpoint, 5, 1, 1)
        assert delivered == [] and acks == []

    def test_multi_packet_message_still_reassembled(self):
        endpoint, delivered, acks = receiver()
        data(endpoint, 6, 1, 2)
        assert list(endpoint._incoming) == [(7, 6)]
        assert delivered == []
        data(endpoint, 6, 0, 2)
        assert endpoint._incoming == {}
        assert [msg.size for msg in delivered] == [1000]
        assert acks == [(6, 1), (6, 0)]


class TestCompletedMemory:
    def test_keeps_the_last_keys_in_completion_order(self):
        endpoint, delivered, acks = receiver()
        total = COMPLETED_MEMORY + 100
        # Completion order differs from msg_id order.
        msg_ids = [(7 * index) % total for index in range(total)]
        for msg_id in msg_ids:
            data(endpoint, msg_id, 0, 1)
        assert len(delivered) == total
        assert list(endpoint._completed) == [
            (7, msg_id) for msg_id in msg_ids[-COMPLETED_MEMORY:]]

    def test_forgotten_key_is_delivered_again(self):
        endpoint, delivered, acks = receiver()
        for msg_id in range(COMPLETED_MEMORY + 1):
            data(endpoint, msg_id, 0, 1)
        data(endpoint, 1, 0, 1)  # still remembered: re-ACKed only
        assert len(delivered) == COMPLETED_MEMORY + 1
        data(endpoint, 0, 0, 1)  # evicted first
        assert len(delivered) == COMPLETED_MEMORY + 2
        assert list(endpoint._completed)[-1] == (7, 0)
