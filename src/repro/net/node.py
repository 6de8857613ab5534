"""Nodes: hosts, switches, and the packet-processor hook for offloads.

Hosts terminate transports; switches forward packets and optionally run
:class:`PacketProcessor` offloads (in-network cache, mutation, aggregation)
that may consume, rewrite, or replace packets in flight — the in-network
computing model of the paper.
"""

from __future__ import annotations

import itertools
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Protocol,
                    Sequence)

from ..sim.engine import Simulator
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .link import Port
    from .routing import PortSelector

__all__ = ["Node", "Host", "Switch", "PacketProcessor", "ProtocolHandler"]

_addresses = itertools.count(1)


class ProtocolHandler(Protocol):
    """Anything a host can hand received packets to (a transport endpoint)."""

    def handle_packet(self, packet: Packet) -> None:
        """Process one packet addressed to this host."""


class PacketProcessor(Protocol):
    """In-network offload hook invoked by a switch for every packet.

    :meth:`process` returns ``None`` to let the original packet continue,
    an empty list to consume it, or a list of replacement packets that the
    switch forwards instead (each routed by its own destination).
    """

    def process(self, packet: Packet, switch: "Switch",
                ingress: "Port") -> Optional[List[Packet]]:
        """Inspect/transform one packet."""


class Node:
    """Base class for anything attached to links."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.address: int = next(_addresses)
        self.ports: List["Port"] = []

    def attach_port(self, port: "Port") -> None:
        """Register a newly created port (called by :class:`~repro.net.link.Link`)."""
        self.ports.append(port)

    def receive(self, packet: Packet, ingress: "Port") -> None:
        """Handle a packet arriving on ``ingress``."""
        raise NotImplementedError

    def port_to(self, neighbor: "Node") -> "Port":
        """The local port whose link leads directly to ``neighbor``."""
        for port in self.ports:
            if port.peer is neighbor:
                return port
        raise LookupError(f"{self.name} has no port to {neighbor.name}")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} addr={self.address}>"


class Host(Node):
    """End host: dispatches received packets to registered transports."""

    def __init__(self, sim: Simulator, name: str):
        super().__init__(sim, name)
        self._protocols: Dict[str, ProtocolHandler] = {}
        self._routes: Dict[int, "Port"] = {}

    def register_protocol(self, protocol: str, handler: ProtocolHandler) -> None:
        """Attach a transport endpoint for packets labelled ``protocol``."""
        self._protocols[protocol] = handler

    def add_route(self, dst_address: int, port: "Port") -> None:
        """Pin traffic for ``dst_address`` to a specific port (multihomed hosts)."""
        self._routes[dst_address] = port

    def egress_port(self, dst_address: int) -> "Port":
        """Port used to reach ``dst_address`` (defaults to the first port)."""
        route = self._routes.get(dst_address)
        if route is not None:
            return route
        if not self.ports:
            raise RuntimeError(f"host {self.name} has no ports")
        return self.ports[0]

    def send(self, packet: Packet) -> bool:
        """Transmit ``packet`` out of the appropriate port."""
        ledger = self.sim.ledger
        if ledger is not None:
            ledger.packet_injected(packet, self.name)
        port = self._routes.get(packet.dst)
        if port is None:
            # No pinned route: the first port (egress_port raises when
            # there is none).
            ports = self.ports
            port = ports[0] if ports else self.egress_port(packet.dst)
        return port.send(packet)

    def receive(self, packet: Packet, ingress: "Port") -> None:
        ledger = self.sim.ledger
        if ledger is not None:
            ledger.packet_arrived(packet, self.name)
        if packet.dst != self.address:
            if ledger is not None:
                ledger.packet_dropped(packet, self.name, "misrouted")
            return
        if packet.corrupted:
            # The checksum stand-in: damaged payloads are detected here
            # and dropped, never delivered to the transport.  Recovery is
            # the transport's job (retransmission after RTO/NACK).
            if ledger is not None:
                ledger.packet_dropped(packet, self.name, "checksum")
            return
        handler = self._protocols.get(packet.protocol)
        if handler is None:
            if ledger is not None:
                ledger.packet_dropped(packet, self.name, "no_protocol")
            return
        if ledger is not None:
            ledger.packet_delivered(packet, self.name)
        handler.handle_packet(packet)


class Switch(Node):
    """Output-queued switch with pluggable path selection and offload hooks."""

    def __init__(self, sim: Simulator, name: str,
                 selector: Optional["PortSelector"] = None):
        super().__init__(sim, name)
        self._table: Dict[int, List["Port"]] = {}
        self.selector = selector
        self.processors: List[PacketProcessor] = []
        #: False while the switch is crashed: packets are dropped, queues
        #: were flushed, and attached links are down.
        self.alive = True
        #: Optional map from a port to its pathlet id; when set, the switch
        #: honours MTP path-exclude lists by filtering candidate ports.
        self.pathlet_lookup = None  # type: Optional[Callable[[Port], int]]

    def add_route(self, dst_address: int, ports: Sequence["Port"]) -> None:
        """Install candidate egress ports for a destination address."""
        if not ports:
            raise ValueError("route needs at least one port")
        self._table[dst_address] = list(ports)

    def add_processor(self, processor: PacketProcessor) -> None:
        """Attach an in-network offload; processors run in attach order."""
        self.processors.append(processor)

    def candidate_ports(self, dst_address: int) -> List["Port"]:
        """Candidate egress ports for ``dst_address`` (raises if unroutable)."""
        try:
            return self._table[dst_address]
        except KeyError:
            raise LookupError(
                f"{self.name} has no route to address {dst_address}") from None

    def crash(self) -> None:
        """Crash the switch: offload state lost, queues flushed, links down.

        Each attached offload gets a last-gasp ``on_switch_crash(switch)``
        callback (if it defines one) before being detached — the hook is
        where checkpoint/handoff logic lives; offloads without one simply
        lose their state, exactly like a power cut.  All egress queues are
        flushed (packets lost), and every attached link is taken down in
        both directions so neighbours see loss of light.
        """
        if not self.alive:
            return
        self.alive = False
        for processor in self.processors:
            hook = getattr(processor, "on_switch_crash", None)
            if hook is not None:
                hook(self)
        self.processors.clear()
        ledger = self.sim.ledger
        for port in self.ports:
            while True:
                packet = port.queue.dequeue(self.sim.now)
                if packet is None:
                    break
                if ledger is not None:
                    ledger.packet_dropped(packet, port.name, "switch_crash")
            port.set_down()
            if port.peer_port is not None:
                port.peer_port.set_down()

    def restart(self, processors: Optional[List[PacketProcessor]] = None,
                ) -> None:
        """Bring a crashed switch back with empty (or supplied) offloads.

        Routing tables survive (they model control-plane state pushed by
        the controller); offload state does not, unless the caller hands
        back processors rebuilt from a crash-time checkpoint.
        """
        if self.alive:
            return
        self.alive = True
        if processors is not None:
            self.processors = list(processors)
        for port in self.ports:
            port.set_up()
            if port.peer_port is not None:
                port.peer_port.set_up()

    def receive(self, packet: Packet, ingress: "Port") -> None:
        ledger = self.sim.ledger
        if not self.alive:
            # A crashed switch is a black hole: anything that still
            # reaches it (e.g. delivered in the same tick as the crash)
            # is dropped.
            if ledger is not None:
                ledger.packet_arrived(packet, self.name)
                ledger.packet_dropped(packet, self.name, "switch_down")
            return
        if ledger is not None:
            ledger.packet_arrived(packet, self.name)
        if not self.processors:
            # Fast path: a one-port route goes straight to its port, with
            # the ledger hook ``forward`` would fire.  Everything else
            # (no route, exclusions, the selector) takes ``forward``.
            candidates = self._table.get(packet.dst)
            if candidates is not None and len(candidates) == 1:
                if ledger is not None:
                    ledger.packet_forwarded(packet, self.name)
                candidates[0].send(packet)
            else:
                self.forward(packet)
            return
        packets: List[Packet] = [packet]
        for processor in self.processors:
            next_packets: List[Packet] = []
            for current in packets:
                result = processor.process(current, self, ingress)
                if result is None:
                    next_packets.append(current)
                else:
                    if ledger is not None:
                        ledger.packet_transformed(current, result, self.name)
                    next_packets.extend(result)
            packets = next_packets
            if not packets:
                return
        for current in packets:
            self.forward(current)

    def forward(self, packet: Packet) -> None:
        """Route one packet to an egress port and enqueue it."""
        ledger = self.sim.ledger
        if ledger is not None:
            # Offloads inject brand-new packets (in-network ACKs, aggregated
            # gradients, cache answers) straight through forward().
            ledger.packet_forwarded(packet, self.name)
        candidates = self._table.get(packet.dst)
        if candidates is None:
            if ledger is not None:
                ledger.packet_dropped(packet, self.name, "no_route")
            return
        if len(candidates) == 1:
            port = candidates[0]
        else:
            if self.pathlet_lookup is not None:
                candidates = self._honour_exclusions(packet, candidates)
            if len(candidates) == 1 or self.selector is None:
                port = candidates[0]
            else:
                port = self.selector.select(packet, candidates, self.sim.now)
        port.send(packet)

    def _honour_exclusions(self, packet: Packet,
                           candidates: List["Port"]) -> List["Port"]:
        """Filter out ports whose pathlet the sender asked to avoid.

        :meth:`forward` calls this only when a pathlet lookup is configured
        and there is more than one candidate.  Applies when the packet's
        header carries a non-empty exclude list; if every candidate is
        excluded, the original set is used (the network must still deliver).
        """
        excluded = getattr(packet.header, "path_exclude", None)
        if not excluded:
            return candidates
        excluded_ids = {path_id for path_id, _tc in excluded}
        allowed = [port for port in candidates
                   if self.pathlet_lookup(port) not in excluded_ids]
        if allowed:
            return allowed
        return candidates
