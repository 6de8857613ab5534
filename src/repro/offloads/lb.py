"""In-network load balancing over MTP messages (Figure 6).

Because every MTP packet announces its message's identity and total size,
a switch can (a) keep all packets of a message on one path — no reordering —
and (b) place each *message* on the path with the least outstanding work,
accounting for the bytes the message is about to add.  That is the
"MTP-enabled load balancer that considers both network load and request
size" the paper compares against ECMP and packet spraying.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Sequence, Tuple

from ..core.header import KIND_DATA, MtpHeader
from ..net.link import Port
from ..net.packet import Packet

__all__ = ["MessageAwareSelector"]

#: Most messages a selector keeps pinned at once; past it the oldest
#: assignment is forgotten.
MAX_TRACKED_MESSAGES = 65536


class MessageAwareSelector:
    """Per-message sticky selector with size-aware least-loaded placement.

    For the first packet of each message the selector estimates each
    candidate port's backlog as (bytes queued at the port) + (bytes of
    messages already assigned there but not yet seen), picks the minimum,
    and pins the whole message to that port.  Non-MTP packets fall back to
    least-queued per packet.
    """

    def __init__(self) -> None:
        #: (src, msg_id) -> assigned Port, oldest assignment first
        self._assignments: OrderedDict[Tuple[int, int], Port] = \
            OrderedDict()
        #: id(port) -> bytes assigned but not yet transmitted through it
        self._unserved: Dict[int, int] = {}
        self.messages_assigned = 0

    def select(self, packet: Packet, candidates: Sequence[Port],
               now: int) -> Port:
        header = packet.header
        if (packet.protocol != "mtp" or not isinstance(header, MtpHeader)
                or header.kind != KIND_DATA):
            return min(candidates, key=lambda port: port.queue.bytes_queued)
        key = (packet.src, header.msg_id)
        port = self._assignments.get(key)
        if port is None or port not in candidates:
            port = self._assign(key, header, candidates)
        self._consume_backlog(port, packet.size)
        if header.is_last_packet:
            self._assignments.pop(key, None)
        return port

    def backlog_estimate(self, port: Port) -> int:
        """Current backlog score for a port (queued + promised bytes)."""
        return port.queue.bytes_queued + self._unserved.get(id(port), 0)

    def _assign(self, key: Tuple[int, int], header: MtpHeader,
                candidates: Sequence[Port]) -> Port:
        port = min(candidates, key=self.backlog_estimate)
        self._assignments[key] = port
        self._unserved[id(port)] = (self._unserved.get(id(port), 0)
                                    + header.msg_len_bytes)
        self.messages_assigned += 1
        if len(self._assignments) > MAX_TRACKED_MESSAGES:
            # Oldest entries correspond to long-finished messages whose last
            # packet we never matched (e.g. retransmitted elsewhere).
            self._assignments.popitem(last=False)
        return port

    def _consume_backlog(self, port: Port, nbytes: int) -> None:
        remaining = self._unserved.get(id(port), 0) - nbytes
        if remaining > 0:
            self._unserved[id(port)] = remaining
        else:
            self._unserved.pop(id(port), None)
