"""In-network key-value cache (NetCache-style, Figure 1 item (1)).

A switch-resident :class:`~repro.net.node.PacketProcessor` that interposes
on KVS request messages.  GET hits are answered directly from the switch —
the request never reaches the backend — which is only possible because each
request is an independent, self-describing, single-packet message.  The
cache learns values by watching responses flow back (read-through fill) and
invalidates on PUTs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from ..apps.kvs import KvRequest, KvResponse
from ..core.header import KIND_DATA, MtpHeader
from ..net.link import Port
from ..net.node import Switch
from ..net.packet import Packet
from ..sim.engine import Simulator
from .injection import inject_message, spoof_ack

__all__ = ["InNetworkCache"]


class InNetworkCache:
    """LRU cache of hot keys, serving GETs from the switch data plane.

    Args:
        sim: the simulator (for timestamps on injected packets).
        service_port: the KVS service port to interpose on.
        capacity: maximum number of cached keys (switch SRAM is small).
    """

    def __init__(self, sim: Simulator, service_port: int,
                 capacity: int = 64):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.service_port = service_port
        self.capacity = capacity
        self._entries: "OrderedDict[str, tuple]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.fills = 0

    # -- data-plane hook ---------------------------------------------------

    def process(self, packet: Packet, switch: Switch,
                ingress: Port) -> Optional[List[Packet]]:
        """Inspect one packet; consume request packets we can answer."""
        if packet.protocol != "mtp":
            return None
        header = packet.header
        if not isinstance(header, MtpHeader) or header.kind != KIND_DATA:
            return None
        payload = header.payload
        if isinstance(payload, KvRequest) and \
                header.dst_port == self.service_port:
            return self._on_request(packet, header, payload, switch)
        if isinstance(payload, KvResponse):
            self._observe_response(payload, header.msg_len_bytes)
        return None

    def _on_request(self, packet: Packet, header: MtpHeader,
                    request: KvRequest, switch: Switch
                    ) -> Optional[List[Packet]]:
        if header.msg_len_pkts != 1:
            # Bounded state: the cache only handles single-packet requests.
            return None
        if request.op == "PUT":
            # Write-through invalidation; the backend stays authoritative.
            if request.key in self._entries:
                del self._entries[request.key]
                self.invalidations += 1
            return None
        entry = self._entries.get(request.key)
        if entry is None:
            self.misses += 1
            return None
        value, value_size = entry
        self._entries.move_to_end(request.key)
        self.hits += 1
        # Absorb the request: ACK the sender, answer the client directly.
        spoof_ack(switch, packet, header)
        response = KvResponse(request.request_id, request.key, value,
                              hit=True, served_by="cache")
        inject_message(switch, src_address=packet.dst,
                       dst_address=packet.src,
                       src_port=self.service_port,
                       dst_port=request.reply_port,
                       size=max(1, value_size), payload=response,
                       tc=packet.entity)
        return []

    def _observe_response(self, response: KvResponse,
                          value_size: int) -> None:
        if response.served_by != "server" or not response.hit:
            return
        if response.value is None:
            return
        self._fill(response.key, response.value, value_size)

    # -- table management ----------------------------------------------------

    def _fill(self, key: str, value, value_size: int = 1024) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = (value, self._entries[key][1])
            return
        self._entries[key] = (value, value_size)
        self.fills += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def insert(self, key: str, value, value_size: int = 1024) -> None:
        """Pre-populate the cache (control-plane path)."""
        self._fill(key, value, value_size)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of observed GETs answered from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
