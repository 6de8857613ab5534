"""UDP: unreliable datagrams, no congestion control.

Included as a baseline for the Table-1 feature comparison: mutation-friendly
and message-independent, but with no congestion control or isolation story.
A :class:`UdpSocket` fragments application datagrams into MTU-sized packets
and reassembles them at the receiver (datagrams, not a stream), dropping any
datagram with a missing fragment after a timeout.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Optional, Tuple

from ..net.node import Host
from ..net.packet import DEFAULT_HEADER_BYTES, MTU, Packet
from ..sim.units import milliseconds
from .base import TransportStack

__all__ = ["UdpHeader", "UdpStack", "UdpSocket"]

_datagram_ids = itertools.count(1)

#: Maximum UDP payload per packet.
UDP_PAYLOAD = MTU - DEFAULT_HEADER_BYTES
#: A partly received datagram is dropped this long after its first packet.
REASSEMBLY_TIMEOUT_NS = milliseconds(10)


class UdpHeader:
    """UDP-with-fragmentation header (datagram id + fragment index)."""

    __slots__ = ("src_port", "dst_port", "datagram_id", "fragment",
                 "n_fragments", "payload_len", "datagram_len")

    def __init__(self, src_port: int, dst_port: int, datagram_id: int,
                 fragment: int, n_fragments: int, payload_len: int,
                 datagram_len: int):
        self.src_port = src_port
        self.dst_port = dst_port
        self.datagram_id = datagram_id
        self.fragment = fragment
        self.n_fragments = n_fragments
        self.payload_len = payload_len
        self.datagram_len = datagram_len

    def __repr__(self) -> str:
        return (f"<UdpHeader {self.src_port}->{self.dst_port} "
                f"dgram={self.datagram_id} frag={self.fragment}/"
                f"{self.n_fragments}>")


class UdpStack(TransportStack):
    """Per-host UDP demultiplexer."""

    protocol_name = "udp"

    def __init__(self, host: Host):
        super().__init__(host)
        self._sockets: Dict[int, "UdpSocket"] = {}
        self._next_port = 20_000

    def socket(self, port: Optional[int] = None,
               on_datagram: Optional[Callable] = None,
               entity: str = "") -> "UdpSocket":
        """Create a socket bound to ``port`` (or an ephemeral port)."""
        if port is None:
            self._next_port += 1
            port = self._next_port
        if port in self._sockets:
            raise ValueError(f"port {port} already bound")
        sock = UdpSocket(self, port, on_datagram, entity=entity)
        self._sockets[port] = sock
        return sock

    def handle_packet(self, packet: Packet) -> None:
        header: UdpHeader = packet.header
        sock = self._sockets.get(header.dst_port)
        if sock is not None:
            sock._on_packet(packet, header)


class UdpSocket:
    """Datagram socket with MTU fragmentation and best-effort reassembly."""

    def __init__(self, stack: UdpStack, port: int,
                 on_datagram: Optional[Callable] = None,
                 entity: str = ""):
        self.stack = stack
        self.sim = stack.sim
        self.port = port
        self.entity = entity
        self.on_datagram = on_datagram or (lambda sock, src, size: None)
        self._partial: Dict[Tuple[int, int], Dict] = {}
        self.datagrams_sent = 0
        self.datagrams_received = 0
        self.datagrams_expired = 0
        self.bytes_received = 0

    def sendto(self, dst_address: int, dst_port: int, size: int) -> int:
        """Send a ``size``-byte datagram; returns the datagram id."""
        if size <= 0:
            raise ValueError("datagram size must be positive")
        datagram_id = next(_datagram_ids)
        n_fragments = -(-size // UDP_PAYLOAD)
        remaining = size
        for fragment in range(n_fragments):
            payload = min(UDP_PAYLOAD, remaining)
            remaining -= payload
            header = UdpHeader(self.port, dst_port, datagram_id, fragment,
                               n_fragments, payload, size)
            packet = Packet(self.stack.host.address, dst_address,
                            DEFAULT_HEADER_BYTES + payload, "udp",
                            header=header, entity=self.entity,
                            flow_label=(self.stack.host.address, self.port,
                                        dst_address, dst_port, "udp"),
                            created_at=self.sim.now)
            self.stack.send_packet(packet)
        self.datagrams_sent += 1
        return datagram_id

    def _on_packet(self, packet: Packet, header: UdpHeader) -> None:
        if header.n_fragments == 1:
            self._complete(packet.src, header.datagram_len)
            return
        key = (packet.src, header.datagram_id)
        state = self._partial.get(key)
        if state is None:
            state = {"fragments": set(), "deadline": self.sim.now
                     + REASSEMBLY_TIMEOUT_NS}
            self._partial[key] = state
            self.sim.schedule(REASSEMBLY_TIMEOUT_NS, self._expire, key)
        state["fragments"].add(header.fragment)
        if len(state["fragments"]) == header.n_fragments:
            del self._partial[key]
            self._complete(packet.src, header.datagram_len)

    def _complete(self, src: int, size: int) -> None:
        self.datagrams_received += 1
        self.bytes_received += size
        self.on_datagram(self, src, size)

    def _expire(self, key: Tuple[int, int]) -> None:
        state = self._partial.get(key)
        if state is not None and self.sim.now >= state["deadline"]:
            del self._partial[key]
            self.datagrams_expired += 1
