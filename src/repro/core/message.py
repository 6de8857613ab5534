"""Messages: the unit of transport, retransmission, and load balancing.

A :class:`Message` is fragmented into numbered packets, each carrying the
message's identity and geometry so any network device can process it with
bounded state (Section 3.1.2).  :class:`SendState` and :class:`ReceiveState`
track per-packet acknowledgement/arrival at the two ends.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Set, Tuple

from ..net.packet import DEFAULT_HEADER_BYTES, MTU

__all__ = ["Message", "SendState", "ReceiveState", "MTP_MAX_PAYLOAD",
           "fragment_sizes"]

#: Maximum MTP payload per packet (MTU minus nominal header overhead).
MTP_MAX_PAYLOAD = MTU - DEFAULT_HEADER_BYTES

_message_ids = itertools.count(1)


def fragment_sizes(total_bytes: int,
                   max_payload: int = MTP_MAX_PAYLOAD) -> List[int]:
    """Packet payload sizes for a message of ``total_bytes``.

    All packets are full-sized except a possibly short tail; a zero-byte
    message is invalid (MTP messages always carry at least one byte).
    """
    if total_bytes <= 0:
        raise ValueError(f"message size must be positive, got {total_bytes}")
    if max_payload <= 0:
        raise ValueError("max_payload must be positive")
    full, tail = divmod(total_bytes, max_payload)
    sizes = [max_payload] * full
    if tail:
        sizes.append(tail)
    return sizes


class Message:
    """An application message: independent, atomic, mutable in-network.

    Attributes:
        msg_id: unique among outstanding messages from this end-host.
        size: total payload bytes.
        priority: application-assigned; smaller numbers are more urgent.
        tc: traffic class (the entity label used for isolation policies).
        payload: opaque application object, visible to in-network offloads.
    """

    __slots__ = ("msg_id", "size", "priority", "tc", "payload",
                 "packet_sizes", "n_packets", "_max_payload")

    def __init__(self, size: int, priority: int = 0, tc: str = "default",
                 payload: Any = None, max_payload: int = MTP_MAX_PAYLOAD):
        self.msg_id = next(_message_ids)
        self.size = size
        self.priority = priority
        self.tc = tc
        self.payload = payload
        self.packet_sizes = fragment_sizes(size, max_payload)
        #: Number of packets the message occupies.
        self.n_packets = len(self.packet_sizes)
        self._max_payload = max_payload

    def packet_offset(self, pkt_num: int) -> int:
        """Byte offset of packet ``pkt_num`` within the message."""
        if not 0 <= pkt_num < self.n_packets:
            raise IndexError(f"packet {pkt_num} of {self.n_packets}")
        # All packets before the tail are full-sized, so the offset is a
        # multiplication, not a prefix sum.
        return pkt_num * self._max_payload

    def __repr__(self) -> str:
        return (f"<Message id={self.msg_id} {self.size}B "
                f"x{self.n_packets}pkts pri={self.priority} tc={self.tc}>")


class SendState:
    """Sender-side tracking for one in-flight message."""

    __slots__ = ("message", "dst_address", "dst_port", "route",
                 "on_complete", "on_failed", "created_at", "completed_at",
                 "failed", "fail_reason", "next_to_send", "acked",
                 "inflight", "retry_count", "retransmissions")

    def __init__(self, message: Message, dst_address: int, dst_port: int,
                 on_complete=None, created_at: int = 0,
                 on_failed=None):
        self.message = message
        self.dst_address = dst_address
        self.dst_port = dst_port
        #: The (dst, tc) window this message is sent under.
        self.route = (dst_address, message.tc)
        self.on_complete = on_complete
        self.on_failed = on_failed
        self.created_at = created_at
        self.completed_at: Optional[int] = None
        self.failed = False
        #: Why the message failed ("deadline", "max_retries", "aborted");
        #: None while in flight or after success.
        self.fail_reason: Optional[str] = None
        self.next_to_send = 0
        self.acked: Set[int] = set()
        #: pkt_num -> (send_time, retransmitted, charged_path) for each
        #: packet in flight; ``charged_path`` is the assumed path (pathlet
        #: ids) its bytes were charged to.  Releasing a charge pops the
        #: record, so no charge is released twice.
        self.inflight: Dict[int, Tuple[int, bool, Tuple[int, ...]]] = {}
        #: pkt_num -> RTO retransmissions queued so far for that packet.
        self.retry_count: Dict[int, int] = {}
        self.retransmissions = 0

    @property
    def complete(self) -> bool:
        """True when every packet has been acknowledged."""
        return len(self.acked) == self.message.n_packets

    def unsent_packets(self) -> int:
        """Packets never transmitted so far."""
        return self.message.n_packets - self.next_to_send

    def mark_acked(self, pkt_num: int) -> bool:
        """Record an acknowledgement; returns True if it was new."""
        if pkt_num in self.acked:
            return False
        self.acked.add(pkt_num)
        return True

    def __repr__(self) -> str:
        return (f"<SendState msg={self.message.msg_id} "
                f"acked={len(self.acked)}/{self.message.n_packets}>")


class ReceiveState:
    """Receiver-side tracking for one partially arrived message."""

    def __init__(self, src_address: int, msg_id: int, msg_len_bytes: int,
                 msg_len_pkts: int, priority: int, first_seen: int):
        self.src_address = src_address
        self.msg_id = msg_id
        self.msg_len_bytes = msg_len_bytes
        self.msg_len_pkts = msg_len_pkts
        self.priority = priority
        self.first_seen = first_seen
        self.received: Set[int] = set()
        self.payloads: Dict[int, Any] = {}
        self.bytes_received = 0

    @property
    def complete(self) -> bool:
        """True when all packets of the message have arrived."""
        return len(self.received) == self.msg_len_pkts

    def add_packet(self, pkt_num: int, pkt_len: int,
                   payload: Any = None) -> bool:
        """Record a packet arrival; returns True if it was new."""
        if pkt_num in self.received:
            return False
        if not 0 <= pkt_num < self.msg_len_pkts:
            raise ValueError(
                f"packet {pkt_num} outside message of {self.msg_len_pkts}")
        self.received.add(pkt_num)
        self.bytes_received += pkt_len
        if payload is not None:
            self.payloads[pkt_num] = payload
        return True

    def missing_packets(self) -> List[int]:
        """Packet numbers not yet received."""
        return [num for num in range(self.msg_len_pkts)
                if num not in self.received]

    def __repr__(self) -> str:
        return (f"<ReceiveState msg={self.msg_id} "
                f"{len(self.received)}/{self.msg_len_pkts}>")
