"""Transport coexistence: MTP sharing a bottleneck with legacy traffic.

Section 4 "Interaction with TCP": MTP must coexist with legacy devices.
These tests put MTP, DCTCP, QUIC, and UDP on one switch and check that
everyone makes progress and nobody is starved.
"""

import pytest

from repro.core import EcnFeedbackSource, MtpStack, PathletRegistry
from repro.core.reassembly import BlobSender
from repro.net import DropTailQueue, Network, RateMonitor
from repro.sim import gbps, microseconds, milliseconds
from repro.transport import (ConnectionCallbacks, QuicStack, TcpStack,
                             UdpStack)


@pytest.fixture
def shared_bottleneck(sim):
    """Four sender hosts -> switch -> four receiver hosts over one link."""
    net = Network(sim)
    sw1 = net.add_switch("sw1")
    sw2 = net.add_switch("sw2")
    bottleneck = net.connect(sw1, sw2, gbps(10), microseconds(5),
                             queue_factory=lambda: DropTailQueue(256, 20))
    pairs = []
    for index in range(4):
        tx = net.add_host(f"tx{index}")
        rx = net.add_host(f"rx{index}")
        net.connect(tx, sw1, gbps(10), microseconds(1))
        net.connect(sw2, rx, gbps(10), microseconds(1))
        pairs.append((tx, rx))
    net.install_routes()
    registry = PathletRegistry(sim)
    registry.register(bottleneck.port_a, EcnFeedbackSource(20))
    return net, pairs


class TestCoexistence:
    def test_mtp_and_dctcp_share(self, sim, shared_bottleneck):
        net, pairs = shared_bottleneck
        monitors = {}
        # MTP flow.
        mtp_monitor = RateMonitor(sim, microseconds(100))
        monitors["mtp"] = mtp_monitor
        MtpStack(pairs[0][1]).endpoint(
            port=100,
            on_message=lambda ep, m: mtp_monitor.record_bytes(m.size))
        BlobSender(MtpStack(pairs[0][0]).endpoint(), pairs[0][1].address,
                   100, total_bytes=1 << 40, window_messages=128)
        # DCTCP flow.
        tcp_monitor = RateMonitor(sim, microseconds(100))
        monitors["dctcp"] = tcp_monitor
        TcpStack(pairs[1][1]).listen(
            80, lambda conn: ConnectionCallbacks(
                on_data=lambda c, n: tcp_monitor.record_bytes(n)),
            variant="dctcp")
        TcpStack(pairs[1][0]).connect(
            pairs[1][1].address, 80,
            ConnectionCallbacks(on_connected=lambda c: c.send(1 << 40)),
            variant="dctcp")
        sim.run(until=milliseconds(8))
        shares = {name: monitor.mean_bps(milliseconds(2), milliseconds(8))
                  for name, monitor in monitors.items()}
        total = sum(shares.values())
        assert total > 7e9  # the link is well utilized
        for name, share in shares.items():
            assert share > 0.15 * total, f"{name} starved: {shares}"

    def test_four_transports_all_progress(self, sim, shared_bottleneck):
        net, pairs = shared_bottleneck
        progress = {}
        # MTP messages.
        mtp_done = []
        MtpStack(pairs[0][1]).endpoint(
            port=100, on_message=lambda ep, m: mtp_done.append(m))
        mtp_sender = MtpStack(pairs[0][0]).endpoint()
        for _ in range(50):
            mtp_sender.send_message(pairs[0][1].address, 100, 20_000)
        progress["mtp"] = mtp_done
        # DCTCP stream.
        tcp_bytes = [0]
        TcpStack(pairs[1][1]).listen(
            80, lambda conn: ConnectionCallbacks(
                on_data=lambda c, n: tcp_bytes.__setitem__(
                    0, tcp_bytes[0] + n)), variant="dctcp")
        TcpStack(pairs[1][0]).connect(
            pairs[1][1].address, 80,
            ConnectionCallbacks(on_connected=lambda c: c.send(1_000_000)),
            variant="dctcp")
        # QUIC streams.
        quic_bytes = [0]
        QuicStack(pairs[2][1]).listen(
            443, lambda conn: ConnectionCallbacks(
                on_data=lambda c, n: quic_bytes.__setitem__(
                    0, quic_bytes[0] + n)))
        QuicStack(pairs[2][0]).connect(
            pairs[2][1].address, 443,
            ConnectionCallbacks(
                on_connected=lambda c: [c.send_message(100_000)
                                        for _ in range(10)]))
        # UDP datagrams.
        udp_sock = UdpStack(pairs[3][1]).socket(port=53)
        udp_sender = UdpStack(pairs[3][0]).socket()

        def telemetry(count=[0]):
            if count[0] >= 100:
                return
            count[0] += 1
            udp_sender.sendto(pairs[3][1].address, 53, 800)
            sim.schedule(microseconds(50), telemetry)

        telemetry()
        sim.run(until=milliseconds(30))
        assert len(mtp_done) == 50
        assert tcp_bytes[0] == 1_000_000
        assert quic_bytes[0] == 1_000_000
        assert udp_sock.datagrams_received > 50

    def test_mtp_backs_off_for_legacy_burst(self, sim, shared_bottleneck):
        """MTP's windows shrink under marks caused by someone else."""
        net, pairs = shared_bottleneck
        mtp_monitor = RateMonitor(sim, microseconds(100))
        stack = MtpStack(pairs[0][0])
        MtpStack(pairs[0][1]).endpoint(
            port=100,
            on_message=lambda ep, m: mtp_monitor.record_bytes(m.size))
        BlobSender(stack.endpoint(), pairs[0][1].address, 100,
                   total_bytes=1 << 40, window_messages=128)
        # Let MTP own the link first.
        sim.run(until=milliseconds(3))
        solo = mtp_monitor.mean_bps(milliseconds(1), milliseconds(3))
        # Then a DCTCP elephant arrives.
        TcpStack(pairs[1][1]).listen(
            80, lambda conn: ConnectionCallbacks(), variant="dctcp")
        TcpStack(pairs[1][0]).connect(
            pairs[1][1].address, 80,
            ConnectionCallbacks(on_connected=lambda c: c.send(1 << 40)),
            variant="dctcp")
        sim.run(until=milliseconds(8))
        contended = mtp_monitor.mean_bps(milliseconds(5), milliseconds(8))
        assert contended < 0.9 * solo  # MTP yielded real bandwidth
        assert contended > 0.2 * solo  # but was not starved
