"""Selectors and topology builders: ECMP pinning, spraying, alternation, routes."""

from repro.net import (DEFAULT_HOST_QUEUE_CAPACITY, DEFAULT_QUEUE_CAPACITY,
                       AlternatingSelector, DropTailQueue, EcmpSelector,
                       LeastQueuedSelector, Network, Packet,
                       PacketSpraySelector, build_dumbbell, build_two_path,
                       stable_hash)
from repro.sim import gbps, microseconds


class FakePort:
    def __init__(self, backlog=0):
        self.queue = type("Q", (), {"bytes_queued": backlog})()


def packet(flow=(1, 2, 3)):
    return Packet(src=1, dst=2, size=100, protocol="t", flow_label=flow)


class TestSelectors:
    def test_ecmp_is_sticky_per_flow(self):
        selector = EcmpSelector()
        ports = [FakePort(), FakePort(), FakePort()]
        choices = {selector.select(packet(flow=(5, 6, 7)), ports, now)
                   for now in range(10)}
        assert len(choices) == 1

    def test_ecmp_spreads_flows(self):
        selector = EcmpSelector()
        ports = [FakePort(), FakePort()]
        chosen = {selector.select(packet(flow=(i, i + 1)), ports, 0) in ports
                  for i in range(50)}
        used = {id(selector.select(packet(flow=(i, i + 1)), ports, 0))
                for i in range(50)}
        assert chosen == {True}
        assert len(used) == 2

    def test_spray_round_robin_cycles(self):
        selector = PacketSpraySelector()
        ports = [FakePort(), FakePort()]
        sequence = [selector.select(packet(), ports, 0) for _ in range(4)]
        assert sequence == [ports[0], ports[1], ports[0], ports[1]]

    def test_alternating_flips_on_period(self):
        selector = AlternatingSelector(period_ns=100)
        ports = [FakePort(), FakePort()]
        assert selector.select(packet(), ports, 0) is ports[0]
        assert selector.select(packet(), ports, 99) is ports[0]
        assert selector.select(packet(), ports, 100) is ports[1]
        assert selector.select(packet(), ports, 200) is ports[0]

    def test_alternating_active_index(self):
        selector = AlternatingSelector(period_ns=384_000)
        assert selector.active_index(0, 2) == 0
        assert selector.active_index(384_000, 2) == 1
        assert selector.active_index(768_000, 2) == 0

    def test_least_queued_picks_emptiest(self):
        selector = LeastQueuedSelector()
        ports = [FakePort(backlog=5000), FakePort(backlog=100)]
        assert selector.select(packet(), ports, 0) is ports[1]

    def test_stable_hash_deterministic(self):
        assert stable_hash((1, 2)) == stable_hash((1, 2))
        assert stable_hash((1, 2)) != stable_hash((2, 1))


class Sink:
    def __init__(self):
        self.received = []

    def handle_packet(self, packet):
        self.received.append(packet)


class TestTopologies:
    def test_dumbbell_connectivity(self, sim):
        net, senders, receivers = build_dumbbell(
            sim, n_pairs=2, edge_rate_bps=gbps(10),
            bottleneck_rate_bps=gbps(10), delay_ns=microseconds(1))
        sinks = []
        for receiver in receivers:
            sink = Sink()
            receiver.register_protocol("t", sink)
            sinks.append(sink)
        for sender, receiver in zip(senders, receivers):
            sender.send(Packet(sender.address, receiver.address, 100, "t"))
        sim.run()
        assert all(len(sink.received) == 1 for sink in sinks)

    def test_two_path_has_parallel_routes(self, sim):
        net, sender, receiver, sw1, sw2 = build_two_path(
            sim, rate_a_bps=gbps(100), rate_b_bps=gbps(10),
            delay_a_ns=1000, delay_b_ns=1000,
            edge_rate_bps=gbps(100), edge_delay_ns=1000)
        candidates = sw1.candidate_ports(receiver.address)
        assert len(candidates) == 2
        assert all(port.peer is sw2 for port in candidates)

    def test_two_path_queue_factory_applies_to_the_paths_only(self, sim):
        net, sender, receiver, sw1, sw2 = build_two_path(
            sim, rate_a_bps=gbps(100), rate_b_bps=gbps(10),
            delay_a_ns=1000, delay_b_ns=1000,
            edge_rate_bps=gbps(100), edge_delay_ns=1000,
            queue_factory=lambda: DropTailQueue(7, 3))
        paths = net.links[1:3]
        assert paths == net.links_between("sw1", "sw2")
        assert sw1.candidate_ports(receiver.address) == [
            path.port_a for path in paths]
        for path in paths:
            for port in (path.port_a, path.port_b):
                assert (port.queue.capacity,
                        port.queue.ecn_threshold) == (7, 3)
        # Edge links keep the default queues: the sender's and receiver's
        # NICs the large host queue, the switch sides the bounded one.
        edges = (net.links[0], net.links[3])
        assert [port.queue.capacity for link in edges
                for port in (link.port_a, link.port_b)] == [
            DEFAULT_HOST_QUEUE_CAPACITY, DEFAULT_QUEUE_CAPACITY,
            DEFAULT_QUEUE_CAPACITY, DEFAULT_HOST_QUEUE_CAPACITY]

    def test_two_path_end_to_end(self, sim):
        net, sender, receiver, sw1, sw2 = build_two_path(
            sim, rate_a_bps=gbps(100), rate_b_bps=gbps(10),
            delay_a_ns=1000, delay_b_ns=1000,
            edge_rate_bps=gbps(100), edge_delay_ns=1000)
        sink = Sink()
        receiver.register_protocol("t", sink)
        sender.send(Packet(sender.address, receiver.address, 1500, "t"))
        sim.run()
        assert len(sink.received) == 1

    def test_duplicate_names_rejected(self, sim):
        net = Network(sim)
        net.add_host("x")
        try:
            net.add_host("x")
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")

    def test_routes_reach_all_hosts(self, sim):
        net, senders, receivers = build_dumbbell(
            sim, n_pairs=3, edge_rate_bps=gbps(10),
            bottleneck_rate_bps=gbps(10), delay_ns=0)
        left = net.switch("swL")
        for host in senders + receivers:
            assert left.candidate_ports(host.address)
