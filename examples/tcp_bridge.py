#!/usr/bin/env python3
"""Bridging legacy TCP islands over an MTP core (Section 4).

A legacy client and server speak plain TCP; the core between their racks
is MTP with two parallel paths and packet spraying.  Gateways terminate
TCP at the island edge, carry the stream as independent MTP chunk
messages (which the core may reorder freely), and restore byte order on
the far side.

Run:  python examples/tcp_bridge.py
"""

from repro.core import EcnFeedbackSource, PathletRegistry
from repro.net import DropTailQueue, Network, PacketSpraySelector
from repro.offloads import TcpMtpGateway
from repro.sim import Simulator, format_time, gbps, microseconds, \
    milliseconds
from repro.transport import ConnectionCallbacks, TcpStack

TRANSFER = 2_000_000


def main() -> None:
    sim = Simulator()
    net = Network(sim)
    client = net.add_host("client")
    server = net.add_host("server")
    gw_a = TcpMtpGateway(sim, "gwA", listen_port=80)
    gw_b = TcpMtpGateway(sim, "gwB")
    net.add_node(gw_a)
    net.add_node(gw_b)
    sw1 = net.add_switch("sw1",
                         selector=PacketSpraySelector())
    sw2 = net.add_switch("sw2")
    queue = lambda: DropTailQueue(128, 20)
    net.connect(client, gw_a, gbps(10), microseconds(2))
    net.connect(gw_a, sw1, gbps(10), microseconds(2), queue_factory=queue)
    path_a = net.connect(sw1, sw2, gbps(10), microseconds(5),
                         queue_factory=queue)
    path_b = net.connect(sw1, sw2, gbps(10), microseconds(7),
                         queue_factory=queue)
    net.connect(sw2, gw_b, gbps(10), microseconds(2), queue_factory=queue)
    net.connect(gw_b, server, gbps(10), microseconds(2))
    net.install_routes()
    registry = PathletRegistry(sim)
    registry.register(path_a.port_a, EcnFeedbackSource(20))
    registry.register(path_b.port_a, EcnFeedbackSource(20))
    gw_a.set_peer(gw_b.address)
    gw_b.set_peer(gw_a.address)
    gw_b.upstream = (server.address, 80)

    received = [0]
    done = [None]

    def on_data(conn, nbytes):
        received[0] += nbytes
        if received[0] >= TRANSFER and done[0] is None:
            done[0] = sim.now

    TcpStack(server).listen(80, lambda conn: ConnectionCallbacks(
        on_data=on_data))
    TcpStack(client).connect(gw_a.address, 80, ConnectionCallbacks(
        on_connected=lambda c: c.send(TRANSFER)))
    sim.run(until=milliseconds(100))

    print(f"transferred {received[0]} of {TRANSFER} bytes "
          f"in {format_time(done[0]) if done[0] else 'N/A'}")
    print(f"core path A carried {path_a.port_a.bytes_transmitted} bytes, "
          f"path B {path_b.port_a.bytes_transmitted} bytes "
          f"(sprayed MTP chunks; TCP order restored at the gateways)")
    print(f"sessions bridged: {gw_a.sessions_opened}")


if __name__ == "__main__":
    main()
