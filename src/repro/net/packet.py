"""Packet model.

A :class:`Packet` is the unit moved by links and switches.  The network layer
only looks at ``src``, ``dst``, ``size``, ECN bits, the flow label, and the
entity (tenant) label; everything transport-specific lives in ``header``,
an opaque object owned by the transport (TCP segment header, MTP header, ...).
"""

from __future__ import annotations

import itertools
from typing import Any, List, Optional, Tuple

__all__ = ["Packet", "PacketPool", "PACKET_POOL",
           "ECT_NOT_CAPABLE", "ECT_CAPABLE", "ECT_CE",
           "MTU", "DEFAULT_HEADER_BYTES"]

#: Conventional Ethernet-style MTU used throughout the experiments.
MTU = 1500
#: Nominal L3/L4 header overhead charged per packet.
DEFAULT_HEADER_BYTES = 40

# ECN codepoints (collapsed to three states).
ECT_NOT_CAPABLE = 0
ECT_CAPABLE = 1
ECT_CE = 3

_packet_ids = itertools.count(1)


class Packet:
    """A network packet.

    Attributes:
        src: address of the originating node.
        dst: address of the destination node.
        size: total wire size in bytes (headers + payload).
        protocol: registry key of the receiving transport ("tcp", "mtp", ...).
        header: transport-level header object (opaque to the network).
        ecn: ECN codepoint; queues set :data:`ECT_CE` on marking.
        flow_label: hashable tuple identifying the flow for ECMP hashing.
        entity: tenant/application label used by isolation policies.
        created_at: virtual time the packet was created (for latency stats).
        uid: globally unique packet id (diagnostics and tie-breaking).
        corrupted: True once a fault has damaged the payload; receivers
            model a checksum by dropping corrupted packets on arrival.
    """

    __slots__ = ("src", "dst", "size", "protocol", "header", "ecn",
                 "flow_label", "entity", "created_at", "uid", "pooled",
                 "corrupted")

    def __init__(self, src: int, dst: int, size: int, protocol: str,
                 header: Any = None, ecn: int = ECT_NOT_CAPABLE,
                 flow_label: Optional[Tuple] = None, entity: str = "",
                 created_at: int = 0):
        if size <= 0:
            raise ValueError(f"packet size must be positive, got {size}")
        self.src = src
        self.dst = dst
        self.size = size
        self.protocol = protocol
        self.header = header
        self.ecn = ecn
        self.flow_label = flow_label if flow_label is not None else (src, dst)
        self.entity = entity
        self.created_at = created_at
        self.uid = next(_packet_ids)
        #: True while the packet shell is on loan from a :class:`PacketPool`
        #: (set by :meth:`PacketPool.acquire`, cleared by ``release``).
        self.pooled = False
        #: Set by corruption faults; checked (as a checksum stand-in) by
        #: receiving hosts, which drop damaged packets instead of
        #: delivering garbage to the transport.
        self.corrupted = False

    @property
    def marked(self) -> bool:
        """True when the packet carries an ECN congestion-experienced mark."""
        return self.ecn == ECT_CE

    def mark_ce(self) -> None:
        """Set the congestion-experienced codepoint (if ECN-capable)."""
        if self.ecn != ECT_NOT_CAPABLE:
            self.ecn = ECT_CE

    def __repr__(self) -> str:
        mark = " CE" if self.marked else ""
        return (f"<Packet #{self.uid} {self.protocol} {self.src}->{self.dst} "
                f"{self.size}B{mark}>")


class PacketPool:
    """Free-list of :class:`Packet` shells for allocation-heavy hot paths.

    ``acquire(...)`` hands out a fully re-initialised packet (fresh
    ``uid``, new field values — behaviourally identical to
    ``Packet(...)``); ``release(packet)`` returns the *shell* to the
    free list once nothing references the packet object any more.  Only
    the shell is recycled: header objects are never reused, so references
    retained to a released packet's header (payloads, feedback lists)
    stay valid.

    Releasing is safe exactly when the caller owns the last reference —
    the idiomatic site is a transport that has just finished processing a
    received control packet (see ``MtpStack.handle_packet``).  Packets
    not acquired from a pool are ignored by :meth:`release`, so consumers
    can unconditionally release whatever reaches them.

    Pool reuse does not perturb determinism: ``uid`` comes from the same
    global counter as direct construction, so replay digests and ledger
    accounting see an identical stream either way.
    """

    __slots__ = ("_free", "max_free", "acquired", "reused", "released")

    def __init__(self, max_free: int = 4096):
        self._free: List[Packet] = []
        #: Cap on the free list; releases beyond it fall to the GC.
        self.max_free = max_free
        self.acquired = 0  #: total acquire() calls
        self.reused = 0    #: acquisitions served from the free list
        self.released = 0  #: shells accepted back

    def acquire(self, src: int, dst: int, size: int, protocol: str,
                header: Any = None, ecn: int = ECT_NOT_CAPABLE,
                flow_label: Optional[Tuple] = None, entity: str = "",
                created_at: int = 0) -> Packet:
        """A packet initialised exactly like ``Packet(...)``, pool-marked."""
        if size <= 0:
            raise ValueError(f"packet size must be positive, got {size}")
        self.acquired += 1
        free = self._free
        if not free:
            packet = Packet(src, dst, size, protocol, header=header,
                            ecn=ecn, flow_label=flow_label, entity=entity,
                            created_at=created_at)
            packet.pooled = True
            return packet
        self.reused += 1
        packet = free.pop()
        packet.src = src
        packet.dst = dst
        packet.size = size
        packet.protocol = protocol
        packet.header = header
        packet.ecn = ecn
        packet.flow_label = (flow_label if flow_label is not None
                             else (src, dst))
        packet.entity = entity
        packet.created_at = created_at
        packet.uid = next(_packet_ids)
        packet.pooled = True
        packet.corrupted = False
        return packet

    def release(self, packet: Packet) -> None:
        """Return a pool-acquired shell to the free list (else a no-op).

        The caller must hold the last live reference; the shell's header
        is dropped (header objects are never recycled).
        """
        if not packet.pooled:
            return
        packet.pooled = False  # double-release becomes a no-op
        packet.header = None
        self.released += 1
        if len(self._free) < self.max_free:
            self._free.append(packet)

    def free_count(self) -> int:
        """Shells currently parked on the free list."""
        return len(self._free)

    def __repr__(self) -> str:
        return (f"<PacketPool free={len(self._free)} "
                f"acquired={self.acquired} reused={self.reused}>")


#: Process-wide default pool used by the transports' control-packet hot
#: paths (MTP ACK/NACK).  Like ``Packet.uid``'s counter it is global by
#: design; a released shell belongs to no simulation.
PACKET_POOL = PacketPool()
