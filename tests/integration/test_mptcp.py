"""MPTCP: subflow striping, meta reassembly, coupled congestion control."""

import pytest

from repro.net import (DropTailQueue, EcmpSelector, Network, build_two_path)
from repro.sim import Simulator, gbps, microseconds, milliseconds
from repro.transport import ConnectionCallbacks, MptcpStack, TcpStack
from repro.transport.base import Runs


def receive(runs, prefix, start, end):
    """File meta bytes ``[start, end)`` as the meta receiver does; returns
    the in-order prefix that ``prefix`` advances to."""
    runs.add(start, end)
    return runs.advance(prefix)


class TestIntervalSet:
    def test_in_order(self):
        runs = Runs()
        assert receive(runs, 0, 0, 10) == 10
        assert receive(runs, 10, 10, 30) == 30
        assert runs.spans == []

    def test_out_of_order_held_back(self):
        runs = Runs()
        assert receive(runs, 0, 10, 20) == 0
        assert runs.spans == [(10, 20)]
        assert receive(runs, 0, 0, 10) == 20

    def test_overlaps_merge(self):
        runs = Runs()
        prefix = receive(runs, 0, 0, 10)
        assert receive(runs, prefix, 5, 15) == 15

    def test_empty_interval(self):
        runs = Runs()
        assert receive(runs, 0, 5, 5) == 0
        assert runs.spans == []


def direct_pair(sim, rate=gbps(1), delay=microseconds(5)):
    net = Network(sim)
    a = net.add_host("a")
    b = net.add_host("b")
    net.connect(a, b, rate, delay,
                queue_factory=lambda: DropTailQueue(256))
    net.install_routes()
    return net, a, b, MptcpStack(a), MptcpStack(b)


class TestMetaConnection:
    def test_establish_and_transfer(self, sim):
        net, a, b, stack_a, stack_b = direct_pair(sim)
        received = [0]
        stack_b.listen(80, lambda meta: ConnectionCallbacks(
            on_data=lambda m, n: received.__setitem__(0, received[0] + n)))
        meta = stack_a.connect(b.address, 80, ConnectionCallbacks(
            on_connected=lambda m: m.send(500_000)), n_subflows=2)
        sim.run(until=milliseconds(100))
        assert received[0] == 500_000
        assert len(meta.subflows) == 2
        assert all(subflow.established for subflow in meta.subflows)

    def test_data_striped_across_subflows(self, sim):
        net, a, b, stack_a, stack_b = direct_pair(sim)
        stack_b.listen(80, lambda meta: ConnectionCallbacks())
        meta = stack_a.connect(b.address, 80, ConnectionCallbacks(
            on_connected=lambda m: m.send(2_000_000)), n_subflows=2)
        sim.run(until=milliseconds(100))
        contributions = [subflow.bytes_sent for subflow in meta.subflows]
        assert all(bytes_sent > 0 for bytes_sent in contributions)

    def test_in_order_meta_delivery(self, sim):
        """Meta bytes are delivered in order even though subflows race."""
        net, a, b, stack_a, stack_b = direct_pair(sim)
        server_meta = []

        def accept(meta):
            server_meta.append(meta)
            return ConnectionCallbacks()

        stack_b.listen(80, accept)
        stack_a.connect(b.address, 80, ConnectionCallbacks(
            on_connected=lambda m: m.send(1_000_000)), n_subflows=3)
        sim.run(until=milliseconds(100))
        receiver = server_meta[0]
        assert receiver.bytes_delivered == 1_000_000
        assert receiver.bytes_delivered <= receiver.bytes_received_any_order

    def test_close_propagates(self, sim):
        net, a, b, stack_a, stack_b = direct_pair(sim)
        closed = []
        stack_b.listen(80, lambda meta: ConnectionCallbacks(
            on_close=lambda m: closed.append(m)))
        stack_a.connect(b.address, 80, ConnectionCallbacks(
            on_connected=lambda m: (m.send(10_000), m.close())),
            n_subflows=2)
        sim.run(until=milliseconds(100))
        assert closed

    def test_validation(self, sim):
        net, a, b, stack_a, stack_b = direct_pair(sim)
        with pytest.raises(ValueError):
            stack_a.connect(b.address, 80, n_subflows=0)
        meta = stack_a.connect(b.address, 80)
        with pytest.raises(ValueError):
            meta.send(0)


class TestMultipathUse:
    def test_subflows_use_both_paths(self, sim):
        net, sender, receiver, sw1, sw2 = build_two_path(
            sim, rate_a_bps=gbps(1), rate_b_bps=gbps(1),
            delay_a_ns=microseconds(5), delay_b_ns=microseconds(5),
            edge_rate_bps=gbps(10), edge_delay_ns=microseconds(1),
            queue_factory=lambda: DropTailQueue(128),
            selector=EcmpSelector())
        stack_s = MptcpStack(sender)
        stack_r = MptcpStack(receiver)
        received = [0]
        stack_r.listen(80, lambda meta: ConnectionCallbacks(
            on_data=lambda m, n: received.__setitem__(0, received[0] + n)))
        # 8 subflows: overwhelmingly likely to hash onto both paths.
        stack_s.connect(receiver.address, 80, ConnectionCallbacks(
            on_connected=lambda m: m.send(4_000_000)), n_subflows=8)
        sim.run(until=milliseconds(100))
        assert received[0] == 4_000_000
        path_ports = sw1.candidate_ports(receiver.address)
        used = [port for port in path_ports if port.bytes_transmitted > 0]
        assert len(used) == 2

    def test_aggregate_beats_single_path(self, sim):
        """With two 1 Gbps paths, MPTCP beats any single-path TCP flow."""

        def goodput(use_mptcp):
            local = Simulator()
            net, sender, receiver, sw1, sw2 = build_two_path(
                local, rate_a_bps=gbps(1), rate_b_bps=gbps(1),
                delay_a_ns=microseconds(5), delay_b_ns=microseconds(5),
                edge_rate_bps=gbps(10), edge_delay_ns=microseconds(1),
                queue_factory=lambda: DropTailQueue(128),
                selector=EcmpSelector())
            received = [0]
            record = lambda m, n: received.__setitem__(0, received[0] + n)
            if use_mptcp:
                MptcpStack(receiver).listen(
                    80, lambda meta: ConnectionCallbacks(on_data=record))
                MptcpStack(sender).connect(
                    receiver.address, 80,
                    ConnectionCallbacks(
                        on_connected=lambda m: m.send(50_000_000)),
                    n_subflows=8)
            else:
                TcpStack(receiver).listen(
                    80, lambda conn: ConnectionCallbacks(on_data=record))
                TcpStack(sender).connect(
                    receiver.address, 80,
                    ConnectionCallbacks(
                        on_connected=lambda c: c.send(50_000_000)))
            local.run(until=milliseconds(20))
            return received[0]

        assert goodput(True) > 1.4 * goodput(False)


class TestLiaFairness:
    def _shared_bottleneck_ratio(self, n_subflows, coupled=True):
        """Goodput of an n-subflow MPTCP bundle over a competing DCTCP
        flow at one shared ECN bottleneck."""
        sim = Simulator()
        net = Network(sim)
        a = net.add_host("a")
        c = net.add_host("c")
        b = net.add_host("b")
        sw1 = net.add_switch("sw1")
        sw2 = net.add_switch("sw2")
        queue = lambda: DropTailQueue(128, 20)
        net.connect(a, sw1, gbps(1), microseconds(2), queue_factory=queue)
        net.connect(c, sw1, gbps(1), microseconds(2), queue_factory=queue)
        net.connect(sw1, sw2, gbps(1), microseconds(5),
                    queue_factory=queue)
        net.connect(sw2, b, gbps(1), microseconds(2), queue_factory=queue)
        net.install_routes()
        mptcp_received = [0]
        tcp_received = [0]
        MptcpStack(b).listen(80, lambda meta: ConnectionCallbacks(
            on_data=lambda m, n: mptcp_received.__setitem__(
                0, mptcp_received[0] + n)), variant="dctcp")
        TcpStack(b).listen(81, lambda conn: ConnectionCallbacks(
            on_data=lambda conn_, n: tcp_received.__setitem__(
                0, tcp_received[0] + n)), variant="dctcp")
        meta = MptcpStack(a).connect(
            b.address, 80,
            ConnectionCallbacks(on_connected=lambda m: m.send(1 << 32)),
            n_subflows=n_subflows, variant="dctcp")
        if not coupled:
            for subflow in meta.subflows:
                subflow.ca_growth_hook = None
        TcpStack(c).connect(b.address, 81, ConnectionCallbacks(
            on_connected=lambda conn: conn.send(1 << 32)),
            variant="dctcp")
        sim.run(until=milliseconds(60))
        return mptcp_received[0] / max(1, tcp_received[0])

    def test_coupled_bundle_fair_to_single_flow(self, sim):
        """Two MPTCP subflows through ONE bottleneck should not take 2x the
        share of a single flow (RFC 6356 goal 2)."""
        ratio = self._shared_bottleneck_ratio(n_subflows=2, coupled=True)
        assert 0.4 < ratio < 1.5

    def test_coupling_reduces_aggressiveness(self, sim):
        """The same bundle with coupling disabled takes a larger share."""
        coupled = self._shared_bottleneck_ratio(n_subflows=4, coupled=True)
        uncoupled = self._shared_bottleneck_ratio(n_subflows=4,
                                                  coupled=False)
        assert coupled < uncoupled