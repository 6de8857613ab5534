"""NDP-style packet trimming (Section 4: "implementing NDP in MTP is simple").

When the data queue is full, a :class:`TrimmingQueue` cuts the packet's
payload instead of dropping it: the surviving header — carried in a small
priority queue — tells the receiver exactly which (message, packet) to NACK,
so repair takes one RTT instead of waiting out a timeout.  The trim notice
is attached as FB_TRIM pathlet feedback, which the sender's congestion
controller also treats as a mark.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ..core.feedback import FB_TRIM, Feedback
from ..core.header import KIND_DATA, MtpHeader
from ..net.packet import Packet
from ..net.queues import QueueDiscipline

__all__ = ["TrimmingQueue", "TRIMMED_PACKET_SIZE"]

#: Wire size of a trimmed (header-only) packet.
TRIMMED_PACKET_SIZE = 64
#: Trimmed-header queue capacity (headers are tiny, so this can be
#: generous; overflowing it finally drops).
HEADER_CAPACITY = 1024


class TrimmingQueue(QueueDiscipline):
    """Drop-tail data queue plus a priority queue of trimmed headers.

    The FB_TRIM feedback entry a trim appends names pathlet 0, class 0.

    Args:
        capacity: data-queue capacity in packets.
    """

    def __init__(self, capacity: int):
        super().__init__()
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._data: Deque[Packet] = deque()
        self._headers: Deque[Packet] = deque()
        self.packets_trimmed = 0

    def _admit(self, packet: Packet, now: int) -> bool:
        if len(self._data) < self.capacity:
            self._data.append(packet)
            return True
        # Data queue full: trim MTP data packets, drop everything else.
        header = packet.header
        if (packet.protocol == "mtp" and isinstance(header, MtpHeader)
                and header.kind == KIND_DATA
                and len(self._headers) < HEADER_CAPACITY):
            packet.size = TRIMMED_PACKET_SIZE
            header.payload = None  # the payload is gone
            header.path_feedback.append(
                (0, 0, Feedback(FB_TRIM, 1.0)))
            self._headers.append(packet)
            self.packets_trimmed += 1
            return True
        return False

    def _next(self, now: int) -> Optional[Packet]:
        # Trimmed headers first (NDP gives them priority so the NACK races
        # ahead of the queued data).
        if self._headers:
            return self._headers.popleft()
        if self._data:
            return self._data.popleft()
        return None

    def resident(self):
        """Trimmed headers first (dequeue order), then queued data."""
        yield from self._headers
        yield from self._data

    def __len__(self) -> int:
        return len(self._data) + len(self._headers)
