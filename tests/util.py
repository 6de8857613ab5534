"""Shared helpers for integration tests."""

from repro.net import DropTailQueue, Network, Packet
from repro.sim import gbps, microseconds
from repro.transport import ConnectionCallbacks, TcpHeader, TcpStack
from repro.transport.tcp import FLAG_ACK, UNLIMITED_WINDOW


class TransferApp:
    """Sender/receiver application pair bookkeeping for one TCP transfer."""

    def __init__(self, sim):
        self.sim = sim
        self.connected_at = None
        self.received = 0
        self.closed_at = None
        self.delivery_times = []

    def receiver_callbacks(self):
        def on_data(conn, nbytes):
            self.received += nbytes
            self.delivery_times.append(self.sim.now)

        def on_close(conn):
            self.closed_at = self.sim.now

        return ConnectionCallbacks(on_data=on_data, on_close=on_close)

    def sender_callbacks(self, send_bytes, close=True):
        def on_connected(conn):
            self.connected_at = self.sim.now
            conn.send(send_bytes)
            if close:
                conn.close()

        return ConnectionCallbacks(on_connected=on_connected)


def tcp_pair(sim, rate=gbps(10), delay=microseconds(5), queue_capacity=256,
             ecn_threshold=None, **listen_options):
    """Two hosts with TCP stacks over one link; server listens on port 80."""
    net = Network(sim)
    a = net.add_host("a")
    b = net.add_host("b")
    net.connect(a, b, rate, delay,
                queue_factory=lambda: DropTailQueue(queue_capacity,
                                                    ecn_threshold))
    net.install_routes()
    stack_a = TcpStack(a)
    stack_b = TcpStack(b)
    return net, a, b, stack_a, stack_b


def run_transfer(sim, stack_a, stack_b, b_address, nbytes,
                 variant="reno", until=None, **conn_options):
    """Drive a single transfer from a to b; returns the TransferApp."""
    app = TransferApp(sim)
    stack_b.listen(80, lambda conn: app.receiver_callbacks(),
                   variant=variant, **conn_options)
    stack_a.connect(b_address, 80, app.sender_callbacks(nbytes),
                    variant=variant, **conn_options)
    sim.run(until=until)
    return app


def receive_segment(conn, seq, length=0, wnd=UNLIMITED_WINDOW):
    """Hand ``conn`` one segment from its peer, as the network would: an
    ACK of ``conn.snd_una`` carrying ``length`` bytes at ``seq``."""
    header = TcpHeader(conn.remote_port, conn.local_port, seq, conn.snd_una,
                       FLAG_ACK, wnd, False, 0, -1, length)
    conn.handle_segment(Packet(conn.remote_address, conn.stack.host.address,
                               40 + length, "tcp", header), header)
