"""TCP-island bridging over an MTP core (Section 4)."""

from repro.core import EcnFeedbackSource, PathletRegistry
from repro.net import DropTailQueue, Network, PacketSpraySelector
from repro.offloads import TcpMtpGateway
from repro.sim import gbps, microseconds, milliseconds
from repro.transport import ConnectionCallbacks, TcpStack


def bridged_islands(sim, core_selector=None, parallel_core=False):
    """client --TCP-- gwA ==MTP core== gwB --TCP-- server."""
    net = Network(sim)
    client = net.add_host("client")
    server = net.add_host("server")
    gw_a = TcpMtpGateway(sim, "gwA", listen_port=80)
    gw_b = TcpMtpGateway(sim, "gwB")
    net.add_node(gw_a)
    net.add_node(gw_b)
    sw1 = net.add_switch("sw1", selector=core_selector)
    sw2 = net.add_switch("sw2")
    queue = lambda: DropTailQueue(128, 20)
    net.connect(client, gw_a, gbps(10), microseconds(2))
    net.connect(gw_a, sw1, gbps(10), microseconds(2), queue_factory=queue)
    core_a = net.connect(sw1, sw2, gbps(10), microseconds(5),
                         queue_factory=queue)
    links = [core_a]
    if parallel_core:
        links.append(net.connect(sw1, sw2, gbps(10), microseconds(6),
                                 queue_factory=queue))
    net.connect(sw2, gw_b, gbps(10), microseconds(2), queue_factory=queue)
    net.connect(gw_b, server, gbps(10), microseconds(2))
    net.install_routes()
    registry = PathletRegistry(sim)
    for link in links:
        registry.register(link.port_a, EcnFeedbackSource(20))
    gw_a.set_peer(gw_b.address)
    gw_b.set_peer(gw_a.address)
    gw_b.upstream = (server.address, 80)
    return net, client, server, gw_a, gw_b


class TestBridging:
    def test_request_crosses_islands(self, sim):
        net, client, server, gw_a, gw_b = bridged_islands(sim)
        received = [0]
        TcpStack(server).listen(80, lambda conn: ConnectionCallbacks(
            on_data=lambda c, n: received.__setitem__(0, received[0] + n)))
        TcpStack(client).connect(gw_a.address, 80, ConnectionCallbacks(
            on_connected=lambda c: c.send(300_000)))
        sim.run(until=milliseconds(100))
        assert received[0] == 300_000
        assert gw_a.sessions_opened == 1
        assert gw_b.sessions_opened == 1

    def test_response_returns(self, sim):
        net, client, server, gw_a, gw_b = bridged_islands(sim)
        client_received = [0]

        def accept(conn):
            def on_data(c, n):
                # Echo double the request size back.
                c.send(2 * n)
            return ConnectionCallbacks(on_data=on_data)

        TcpStack(server).listen(80, accept)
        TcpStack(client).connect(
            gw_a.address, 80,
            ConnectionCallbacks(
                on_connected=lambda c: c.send(50_000),
                on_data=lambda c, n: client_received.__setitem__(
                    0, client_received[0] + n)))
        sim.run(until=milliseconds(100))
        assert client_received[0] == 100_000

    def test_fin_propagates(self, sim):
        net, client, server, gw_a, gw_b = bridged_islands(sim)
        closed = []
        TcpStack(server).listen(80, lambda conn: ConnectionCallbacks(
            on_close=lambda c: closed.append("server")))
        TcpStack(client).connect(gw_a.address, 80, ConnectionCallbacks(
            on_connected=lambda c: (c.send(10_000), c.close())))
        sim.run(until=milliseconds(100))
        assert closed == ["server"]

    def test_multiple_sessions(self, sim):
        net, client, server, gw_a, gw_b = bridged_islands(sim)
        received = [0]
        TcpStack(server).listen(80, lambda conn: ConnectionCallbacks(
            on_data=lambda c, n: received.__setitem__(0, received[0] + n)))
        client_stack = TcpStack(client)
        for _ in range(5):
            client_stack.connect(gw_a.address, 80, ConnectionCallbacks(
                on_connected=lambda c: c.send(40_000)))
        sim.run(until=milliseconds(100))
        assert received[0] == 200_000
        assert gw_a.sessions_opened == 5

    def test_stream_order_survives_sprayed_core(self, sim):
        """The MTP core may spray chunk messages across parallel paths;
        the gateways restore stream order for the legacy endpoints."""
        net, client, server, gw_a, gw_b = bridged_islands(
            sim, core_selector=PacketSpraySelector(),
            parallel_core=True)
        received = [0]
        TcpStack(server).listen(80, lambda conn: ConnectionCallbacks(
            on_data=lambda c, n: received.__setitem__(0, received[0] + n)))
        TcpStack(client).connect(gw_a.address, 80, ConnectionCallbacks(
            on_connected=lambda c: c.send(500_000)))
        sim.run(until=milliseconds(150))
        assert received[0] == 500_000

    def test_fin_chunk_before_data(self, sim):
        """The core delivers the FIN chunk first and a duplicate of it
        last: every byte still reaches the server, and the gateway closes
        its connection exactly once."""
        net, client, server, gw_a, gw_b = bridged_islands(sim)
        received = [0]
        server_closed = []
        TcpStack(server).listen(80, lambda conn: ConnectionCallbacks(
            on_data=lambda c, n: received.__setitem__(0, received[0] + n),
            on_close=lambda c: server_closed.append(received[0])))
        send_message = gw_a.endpoint.send_message
        held = []

        def fin_first(dst, port, size, payload):
            if not payload.fin:
                held.append((dst, port, size, payload))
                return
            send_message(dst, port, size, payload=payload)

            def release():
                for dst_, port_, size_, chunk in held:
                    send_message(dst_, port_, size_, payload=chunk)
                send_message(dst, port, size, payload=payload)

            sim.schedule(microseconds(50), release)

        gw_a.endpoint.send_message = fin_first
        delivered = []
        closes = []
        deliver = gw_b._deliver

        def logged(session, chunk):
            if not delivered:
                close = session.conn.close
                session.conn.close = lambda: (closes.append(1), close())
            delivered.append(chunk.fin)
            deliver(session, chunk)

        gw_b._deliver = logged
        TcpStack(client).connect(gw_a.address, 80, ConnectionCallbacks(
            on_connected=lambda c: (c.send(30_000), c.close())))
        sim.run(until=milliseconds(100))
        assert delivered[0] is True and delivered[-1] is True
        assert len(delivered) > 3
        assert received[0] == 30_000
        assert closes == [1]
        assert server_closed == [30_000]
