"""Links and ports.

A :class:`Port` is a node's attachment to one end of a link: it owns the
egress queue and the transmitter for the outgoing direction.  A
:class:`Link` bundles the two ports of a full-duplex connection.  Transmission
models store-and-forward: a packet occupies the transmitter for its
serialization time, then arrives at the peer after the propagation delay.

A hop costs one kernel event when the port is idle.  When a port with no
``on_transmit`` hook starts a packet, it schedules the arrival at
``start + serialization + propagation`` at once; a wake event at the end
of serialization is queued only when another packet waits for the
transmitter.  A port with a hook keeps two events per hop, because the
hook runs when serialization ends: a finish event, which schedules the
arrival.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from ..sim.engine import Simulator
from ..sim.units import transmission_delay
from .packet import Packet
from .queues import DropTailQueue, QueueDiscipline

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .node import Node

__all__ = ["Port", "Link", "DEFAULT_QUEUE_CAPACITY",
           "DEFAULT_HOST_QUEUE_CAPACITY"]

#: Queue capacity used when a topology does not specify one (packets).
DEFAULT_QUEUE_CAPACITY = 256

#: Default capacity of a host's NIC queue.  Hosts don't drop their own
#: packets — the OS applies backpressure — so this is effectively lossless;
#: window-based transports keep it short in practice.
DEFAULT_HOST_QUEUE_CAPACITY = 1_000_000


class Port:
    """One directed half of a link: egress queue plus transmitter."""

    def __init__(self, sim: Simulator, node: "Node", rate_bps: int,
                 delay_ns: int, queue: Optional[QueueDiscipline] = None,
                 name: str = ""):
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        if delay_ns < 0:
            raise ValueError(f"propagation delay must be >= 0, got {delay_ns}")
        self.sim = sim
        self.node = node
        self.rate_bps = rate_bps
        self.delay_ns = delay_ns
        self.queue = queue if queue is not None else DropTailQueue(
            DEFAULT_QUEUE_CAPACITY)
        self.name = name or f"{node.name}.port{len(node.ports)}"
        if sim.ledger is not None:
            sim.ledger.register_port(self)
        self.peer: Optional["Node"] = None
        self.peer_port: Optional["Port"] = None
        #: True while a queued event (the finish or the wake) will start
        #: the next packet, so a send need not.
        self._start_pending = False
        #: Counted when serialization starts on a port without a hook,
        #: and when it ends on a port with one; a frame cut by an outage
        #: is never counted.
        self.bytes_transmitted = 0
        self.packets_transmitted = 0
        #: When the transmitter is free: the end of the current frame's
        #: serialization.
        self.busy_until = 0
        #: Size of the last frame started on a port without a hook,
        #: taken back from the counters when an outage cuts it.
        self._tx_size = 0
        #: Serialization delay by packet size: ``transmission_delay`` at
        #: this port's fixed rate, computed once per distinct size.
        self._tx_delays: Dict[int, int] = {}
        #: Link state: False while the attached link is administratively
        #: or physically down.  Egress is refused and in-flight packets
        #: (serializing or propagating) are lost when the link drops.
        self.up = True
        #: Monotonic failure epoch.  Every ``set_down()`` bumps it; the
        #: epoch travels with each scheduled wire event so completions
        #: scheduled before an outage are recognised as lost.
        self.down_epoch = 0
        #: Packets refused or lost because the link was down.
        self.link_down_drops = 0
        #: Optional hook called with each packet as it completes serialization
        #: (used by monitors and in-network telemetry).  Set it before
        #: traffic starts: it selects the two-event hop.
        self.on_transmit: Optional[Callable[[Packet], None]] = None
        # The per-packet event callbacks, bound once instead of once per
        # packet; their qualnames (the replay event kinds) are the
        # methods'.
        self._finish = self._finish_transmission
        self._arrive = self._deliver
        self._wake_up = self._wake

    def send(self, packet: Packet) -> bool:
        """Queue ``packet`` for transmission; returns False when it was dropped."""
        if self.peer is None:
            raise RuntimeError(f"port {self.name} is not connected")
        sim = self.sim
        ledger = sim.ledger
        if not self.up:
            # A downed link refuses egress outright: the packet is lost at
            # the NIC, mirroring a cable pull / interface-down.
            self.link_down_drops += 1
            if ledger is not None:
                ledger.packet_dropped(packet, self.name, "link_down")
            return False
        accepted = self.queue.enqueue(packet, sim.now)
        if ledger is not None:
            if accepted:
                ledger.packet_enqueued(packet, self.name)
            else:
                ledger.packet_dropped(packet, self.name, "queue_full")
        if accepted and not self._start_pending:
            if sim.now >= self.busy_until:
                self._transmit_next()
            else:
                # The transmitter is busy and nothing will restart it.
                self._start_pending = True
                sim.at(self.busy_until, self._wake_up, self.down_epoch)
        return accepted

    def set_down(self) -> None:
        """Take the port down: in-flight packets are lost, egress refused.

        Packets already queued stay resident (they will transmit when the
        link comes back); the packet currently serializing and any packet
        propagating on the wire are dropped when their arrival events (or,
        on a hooked port, the finish event) fire and notice the stale
        epoch.
        """
        if not self.up:
            return
        self.up = False
        self.down_epoch += 1
        if self.on_transmit is None and self.sim.now < self.busy_until:
            # The frame on the transmitter was counted when it started,
            # but it never finishes.
            self.bytes_transmitted -= self._tx_size
            self.packets_transmitted -= 1

    def set_up(self) -> None:
        """Bring the port back up and resume draining the egress queue."""
        if self.up:
            return
        self.up = True
        # The frame the outage cut no longer holds the transmitter.
        self.busy_until = self.sim.now
        self._start_pending = False
        self._transmit_next()

    @property
    def queue_length(self) -> int:
        """Packets waiting in the egress queue (excludes the one on the wire)."""
        return len(self.queue)

    def _transmit_next(self) -> None:
        """Start the head-of-queue packet on an idle transmitter."""
        if not self.up:
            self._start_pending = False
            return
        sim = self.sim
        queue = self.queue
        packet = queue.dequeue(sim.now)
        if packet is None:
            self._start_pending = False
            return
        if sim.ledger is not None:
            sim.ledger.packet_wire(packet, self.name)
        size = packet.size
        tx_delay = self._tx_delays.get(size)
        if tx_delay is None:
            tx_delay = transmission_delay(size, self.rate_bps)
            self._tx_delays[size] = tx_delay
        self.busy_until = sim.now + tx_delay
        # The epoch rides along so an event scheduled before an outage
        # is recognised as belonging to a dead wire.
        epoch = self.down_epoch
        if self.on_transmit is not None:
            self._start_pending = True
            sim.schedule(tx_delay, self._finish, packet, epoch)
            return
        self.bytes_transmitted += size
        self.packets_transmitted += 1
        self._tx_size = size
        sim.schedule(tx_delay + self.delay_ns, self._arrive, packet, epoch)
        # The counters say whether a packet waits without a len() call
        # (enqueued == dequeued + len, the QueueDiscipline invariant).
        if queue.packets_enqueued != queue.packets_dequeued:
            self._start_pending = True
            sim.schedule(tx_delay, self._wake_up, epoch)
        else:
            self._start_pending = False

    def _wake(self, epoch: int) -> None:
        """The transmitter is free and a packet waits: start it.

        A wake from before an outage does nothing: ``set_up`` restarted
        the transmitter itself.
        """
        if epoch == self.down_epoch:
            self._transmit_next()

    def _finish_transmission(self, packet: Packet, epoch: int = -1) -> None:
        """End of serialization on a port with an ``on_transmit`` hook."""
        sim = self.sim
        if epoch != self.down_epoch or not self.up:
            # The link dropped while this packet was serializing: the
            # partial frame is lost on the floor.
            self.link_down_drops += 1
            if sim.ledger is not None:
                sim.ledger.packet_dropped(packet, self.name, "link_down")
            return
        self.bytes_transmitted += packet.size
        self.packets_transmitted += 1
        if self.on_transmit is not None:
            self.on_transmit(packet)
        # Propagation: packet arrives at the peer after the link delay.
        sim.schedule(self.delay_ns, self._arrive, packet, self.down_epoch)
        # An empty queue leaves the transmitter idle until the next send.
        # The counters say whether a packet waits without a len() call
        # (enqueued == dequeued + len, the QueueDiscipline invariant).
        queue = self.queue
        if queue.packets_enqueued != queue.packets_dequeued:
            self._transmit_next()
        else:
            self._start_pending = False

    def _deliver(self, packet: Packet, epoch: int = -1) -> None:
        assert self.peer is not None and self.peer_port is not None
        if epoch != self.down_epoch or not self.up:
            # The link went down after the packet started: mid-propagation,
            # or mid-serialization on a port without a hook.  The bits
            # never arrive.
            self.link_down_drops += 1
            if self.sim.ledger is not None:
                self.sim.ledger.packet_dropped(packet, self.name,
                                               "link_down")
            return
        self.peer.receive(packet, self.peer_port)

    def __repr__(self) -> str:
        peer = self.peer.name if self.peer else "unconnected"
        return f"<Port {self.name} -> {peer} q={self.queue_length}>"


class Link:
    """A full-duplex link: two :class:`Port` objects wired back-to-back.

    With no explicit ``queue_factory``, host-side ports get a large
    (effectively lossless) NIC queue while switch-side ports get the
    bounded default — a host's OS backpressures rather than dropping its
    own packets.  An explicit factory applies to both sides.
    """

    def __init__(self, sim: Simulator, a: "Node", b: "Node", rate_bps: int,
                 delay_ns: int,
                 queue_factory: Optional[Callable[[], QueueDiscipline]] = None,
                 rate_bps_ba: Optional[int] = None):
        def default_queue(node: "Node") -> QueueDiscipline:
            from .node import Host  # local import avoids a cycle
            if isinstance(node, Host):
                return DropTailQueue(DEFAULT_HOST_QUEUE_CAPACITY)
            return DropTailQueue(DEFAULT_QUEUE_CAPACITY)

        factory_a = queue_factory or (lambda: default_queue(a))
        factory_b = queue_factory or (lambda: default_queue(b))
        self.port_a = Port(sim, a, rate_bps, delay_ns, factory_a(),
                           name=f"{a.name}->{b.name}")
        self.port_b = Port(sim, b, rate_bps_ba or rate_bps, delay_ns,
                           factory_b(), name=f"{b.name}->{a.name}")
        self.port_a.peer = b
        self.port_a.peer_port = self.port_b
        self.port_b.peer = a
        self.port_b.peer_port = self.port_a
        a.attach_port(self.port_a)
        b.attach_port(self.port_b)

    @property
    def up(self) -> bool:
        """True while both directions of the link are up."""
        return self.port_a.up and self.port_b.up

    def set_down(self) -> None:
        """Fail the link in both directions (cable pull)."""
        self.port_a.set_down()
        self.port_b.set_down()

    def set_up(self) -> None:
        """Restore the link in both directions."""
        self.port_a.set_up()
        self.port_b.set_up()

    def __repr__(self) -> str:
        return f"<Link {self.port_a.name} / {self.port_b.name}>"
