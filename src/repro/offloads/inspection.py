"""In-network message inspection (IDS-style, Section 2.1 motivation).

An intrusion-detection offload needs to see *whole requests* with bounded
state — exactly what MTP's self-describing, atomic messages provide.  The
:class:`InspectionOffload` applies a predicate to each complete message's
payload: flagged messages are dropped and counted.  Multi-packet messages
are inspected on their first packet (the payload object rides on every
packet), so no reassembly buffer is needed at all — contrast with a TCP IDS
that must reassemble the byte stream.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from ..core.header import KIND_DATA, MtpHeader
from ..net.link import Port
from ..net.node import Switch
from ..net.packet import Packet

__all__ = ["InspectionOffload"]


class InspectionOffload:
    """Drops and counts messages whose payload a predicate flags.

    Args:
        flag: ``flag(payload) -> bool``; True means malicious/unwanted.
        match_port: restrict to one destination port (None = all MTP).
    """

    def __init__(self, flag: Callable[[object], bool],
                 match_port: Optional[int] = None):
        self.flag = flag
        self.match_port = match_port
        self.messages_inspected = 0
        self.messages_flagged = 0
        self.packets_dropped = 0
        #: (src, msg_id) of messages already verdict-ed (first packet
        #: decides; later packets follow the verdict without re-inspection).
        self._verdicts: Dict[Tuple[int, int], bool] = {}
        #: Recently flagged message keys, so retransmissions of a dropped
        #: message are not re-counted as new detections (bounded LRU).
        self._flagged_seen: "OrderedDict[Tuple[int, int], None]" = \
            OrderedDict()

    def process(self, packet: Packet, switch: Switch,
                ingress: Port) -> Optional[List[Packet]]:
        """Apply the verdict for this packet's message."""
        if packet.protocol != "mtp":
            return None
        header = packet.header
        if not isinstance(header, MtpHeader) or header.kind != KIND_DATA:
            return None
        if self.match_port is not None \
                and header.dst_port != self.match_port:
            return None
        key = (packet.src, header.msg_id)
        verdict = self._verdicts.get(key)
        if verdict is None:
            if key in self._flagged_seen:
                verdict = True  # a retransmission of a dropped message
            else:
                verdict = bool(self.flag(header.payload))
                self.messages_inspected += 1
                if verdict:
                    self.messages_flagged += 1
                    self._flagged_seen[key] = None
                    if len(self._flagged_seen) > 4096:
                        self._flagged_seen.popitem(last=False)
            if header.msg_len_pkts > 1:
                self._verdicts[key] = verdict
        if header.is_last_packet:
            self._verdicts.pop(key, None)
        if verdict:
            self.packets_dropped += 1
            return []
        return None

    @property
    def open_verdicts(self) -> int:
        """Messages with a cached verdict still in flight (bounded state)."""
        return len(self._verdicts)
