"""Runtime sanitizers: SanitizingSimulator trips, queue audits, and the
packet-conservation ledger (clean runs, accounted drops, injected leaks,
offloads that consume and inject packets, and fig2/fig5 runs).
"""

from collections import deque

import pytest

from repro.analysis import (PacketLedger, SanitizerError, SanitizingSimulator,
                            audit_network_queues, audit_queue)
from repro.apps import KvsClient, KvsServer
from repro.core import EcnFeedbackSource, MtpStack, PathletRegistry
from repro.experiments.fig2_proxy import Fig2Config, run_fig2
from repro.experiments.fig5_multipath import Fig5Config, run_fig5
from repro.net import (DropTailQueue, Network, PacketSpraySelector,
                       QueueDiscipline)
from repro.net.packet import Packet
from repro.offloads import (AggregationOffload, GradientChunk, InNetworkCache,
                            TcpMtpGateway)
from repro.sim import Simulator, Timer, gbps, microseconds, milliseconds
from repro.transport import ConnectionCallbacks, TcpStack


def noop(*args):
    pass


class Sink:
    """Minimal protocol handler that counts deliveries."""

    def __init__(self):
        self.received = []

    def handle_packet(self, packet):
        self.received.append(packet)


def build_pair(sim, queue_factory=None):
    """sender -- receiver over one link, with a delivery sink installed."""
    net = Network(sim)
    sender = net.add_host("sender")
    receiver = net.add_host("receiver")
    net.connect(sender, receiver, rate_bps=10**9, delay_ns=1000,
                queue_factory=queue_factory)
    net.install_routes()
    sink = Sink()
    receiver.register_protocol("test", sink)
    return net, sender, receiver, sink


def make_packet(sender, receiver, size=1000):
    return Packet(src=sender.address, dst=receiver.address, size=size,
                  protocol="test")


class TestSanitizingSimulator:
    def test_float_delay_rejected_naming_callback(self):
        sim = SanitizingSimulator()
        with pytest.raises(SanitizerError) as excinfo:
            sim.schedule(1.5, noop)
        message = str(excinfo.value)
        assert "noop" in message
        assert "SIM003" in message

    def test_bool_delay_rejected(self):
        sim = SanitizingSimulator()
        with pytest.raises(SanitizerError):
            sim.schedule(True, noop)

    def test_float_at_rejected(self):
        sim = SanitizingSimulator()
        with pytest.raises(SanitizerError):
            sim.at(2.0, noop)

    def test_float_link_delay_rejected_on_first_packet(self):
        # Propagation is queued by the per-packet path, so the check
        # must see every scheduled event, not just the callers' own.
        sim = SanitizingSimulator()
        net = Network(sim)
        sender = net.add_host("sender")
        receiver = net.add_host("receiver")
        net.connect(sender, receiver, rate_bps=10**9, delay_ns=1.5)
        net.install_routes()
        receiver.register_protocol("test", Sink())
        # The idle port schedules the arrival, serialization (8,000 ns)
        # plus the float propagation delay, as it starts the packet: the
        # send itself raises.
        with pytest.raises(SanitizerError) as excinfo:
            sender.send(make_packet(sender, receiver))
            sim.run()
        assert "delay=8001.5 (float) for Port._deliver" in str(excinfo.value)

    def test_float_timer_restart_rejected(self):
        sim = SanitizingSimulator()
        timer = Timer(sim, noop)
        with pytest.raises(SanitizerError) as excinfo:
            timer.restart(2.5)
        message = str(excinfo.value)
        assert "Timer.restart" in message
        assert "noop" in message

    def test_integer_times_pass_and_are_counted(self):
        sim = SanitizingSimulator()
        sim.schedule(5, noop)
        sim.at(10, noop)
        sim.run()
        assert sim.checks_performed == 2
        assert sim.now == 10

    def test_causality_violation_detected(self):
        sim = SanitizingSimulator()
        sim.schedule(5, noop)
        # Simulate corrupted heap state: the clock has already "reached" a
        # later time than the pending event.
        sim._last_event_time = 10**9
        with pytest.raises(SanitizerError) as excinfo:
            sim.run()
        assert "causality" in str(excinfo.value)

    def test_drop_in_for_plain_simulator(self):
        ledger = PacketLedger()
        sim = SanitizingSimulator(ledger=ledger)
        assert sim.ledger is ledger
        _, sender, receiver, sink = build_pair(sim)
        sender.send(make_packet(sender, receiver))
        sim.run()
        assert len(sink.received) == 1
        assert ledger.finalize(sim).ok


class TestAuditQueue:
    def fill(self, queue, n=3):
        for index in range(n):
            assert queue.enqueue(Packet(src=1, dst=2, size=100 + index,
                                        protocol="test"), now=0)

    def test_clean_queue_has_no_problems(self):
        queue = DropTailQueue(capacity=8)
        self.fill(queue)
        queue.dequeue(now=0)
        assert audit_queue(queue, name="sw.port0") == []

    def test_counter_tamper_detected_and_named(self):
        queue = DropTailQueue(capacity=8)
        self.fill(queue)
        queue.packets_enqueued += 5
        problems = audit_queue(queue, name="sw.port0")
        assert problems
        assert any("sw.port0" in problem for problem in problems)

    def test_silent_removal_detected(self):
        queue = DropTailQueue(capacity=8)
        self.fill(queue)
        queue._fifo.pop()  # bypass dequeue(): counters now lie
        problems = audit_queue(queue, name="evil")
        assert any("len(queue)" in problem for problem in problems)

    def test_byte_mismatch_detected(self):
        queue = DropTailQueue(capacity=8)
        self.fill(queue)
        queue.bytes_queued += 7
        problems = audit_queue(queue)
        assert any("bytes" in problem for problem in problems)

    def test_negative_counter_detected(self):
        queue = DropTailQueue(capacity=8)
        queue.packets_dropped = -1
        problems = audit_queue(queue)
        assert any("negative" in problem for problem in problems)

    def test_network_wide_audit_clean_after_run(self):
        sim = Simulator()
        net, sender, receiver, sink = build_pair(sim)
        for _ in range(5):
            sender.send(make_packet(sender, receiver))
        sim.run()
        assert audit_network_queues(net) == []


class LeakyQueue(DropTailQueue):
    """Evil discipline: silently discards every second admitted packet."""

    def __init__(self, capacity):
        super().__init__(capacity)
        self._admitted = 0

    def enqueue(self, packet, now):
        # DropTailQueue admits in enqueue() itself, so the leak goes here.
        self._admitted += 1
        if self._admitted % 2 == 0:
            # Count the packet as admitted, keep nothing: the packet leaks.
            self.bytes_offered += packet.size
            self.packets_enqueued += 1
            self.bytes_queued += packet.size
            return True
        return super().enqueue(packet, now)


class UnlistedQueue(QueueDiscipline):
    """A FIFO that cannot enumerate its packets: no ``resident()``."""

    def __init__(self):
        super().__init__()
        self._fifo = deque()

    def _admit(self, packet, now):
        self._fifo.append(packet)
        return True

    def _next(self, now):
        return self._fifo.popleft() if self._fifo else None

    def __len__(self):
        return len(self._fifo)


class TestPacketLedger:
    def test_clean_run_conserves(self):
        sim = Simulator()
        sim.ledger = PacketLedger()
        _, sender, receiver, sink = build_pair(sim)
        for _ in range(5):
            sender.send(make_packet(sender, receiver))
        sim.run()
        report = sim.ledger.finalize(sim)
        assert report.ok
        assert report.injected == 5
        assert report.delivered == 5
        assert report.dropped == 0
        assert report.in_flight == 0
        assert "OK" in report.summary()

    def test_accounted_drops_are_not_leaks(self):
        sim = Simulator()
        sim.ledger = PacketLedger()
        _, sender, receiver, sink = build_pair(
            sim, queue_factory=lambda: DropTailQueue(capacity=2))
        for _ in range(10):  # burst at t=0 overflows the 2-packet queue
            sender.send(make_packet(sender, receiver))
        sim.run()
        report = sim.ledger.finalize(sim)
        assert report.ok
        assert report.dropped > 0
        assert report.injected == report.delivered + report.dropped
        assert any(key.endswith(":queue_full")
                   for key in report.drop_reasons)

    def test_leak_names_the_component(self):
        sim = Simulator()
        sim.ledger = PacketLedger()
        _, sender, receiver, sink = build_pair(
            sim, queue_factory=lambda: LeakyQueue(capacity=32))
        for _ in range(6):
            sender.send(make_packet(sender, receiver))
        sim.run()
        report = sim.ledger.finalize(sim)
        assert not report.ok
        assert report.leaked
        # Every leak is pinned to the evil port's queue.
        assert all(location == "queued@sender->receiver"
                   for _uid, location in report.leaked)
        # The queue's own counters independently expose the corruption.
        assert any("sender->receiver" in problem
                   for problem in report.accounting)
        assert "LEAK" in report.summary()

    def test_undelivered_protocol_counts_as_drop(self):
        sim = Simulator()
        sim.ledger = PacketLedger()
        _, sender, receiver, sink = build_pair(sim)
        packet = make_packet(sender, receiver)
        packet.protocol = "nobody-home"
        sender.send(packet)
        sim.run()
        report = sim.ledger.finalize(sim)
        assert report.ok
        assert report.dropped == 1
        assert "receiver:no_protocol" in report.drop_reasons

    def test_in_flight_tolerated_on_bounded_run(self):
        sim = Simulator()
        sim.ledger = PacketLedger()
        _, sender, receiver, sink = build_pair(sim)
        sender.send(make_packet(sender, receiver))
        sim.run(until=500)  # propagation takes 1000ns: packet still flying
        report = sim.ledger.finalize(sim)
        assert report.ok
        assert report.in_flight == 1

    def test_queue_without_resident_is_not_excused(self):
        sim = Simulator()
        sim.ledger = PacketLedger()
        _, sender, receiver, sink = build_pair(
            sim, queue_factory=UnlistedQueue)
        for _ in range(5):
            sender.send(make_packet(sender, receiver))
        sim.run(until=500)  # four packets still wait in the sender's queue
        assert len(sender.ports[0].queue) == 4
        with pytest.raises(NotImplementedError):
            sim.ledger.finalize(sim)


def build_star(sim, n_hosts):
    """``n_hosts`` MTP hosts around one switch."""
    net = Network(sim)
    switch = net.add_switch("sw")
    hosts = [net.add_host(f"h{index}") for index in range(n_hosts)]
    for host in hosts:
        net.connect(host, switch, rate_bps=10**10, delay_ns=2000,
                    queue_factory=lambda: DropTailQueue(128, 20))
    net.install_routes()
    return switch, hosts, [MtpStack(host) for host in hosts]


class TestOffloadConservation:
    """Offloads that consume packets and inject new ones keep the books:
    each absorbed packet is counted as consumed, each spoofed ACK or
    answer as injected, and nothing leaks."""

    def test_cache_hits_consume_requests(self):
        sim = SanitizingSimulator(ledger=PacketLedger())
        switch, (client_host, server_host), (client_stack, server_stack) = \
            build_star(sim, 2)
        server = KvsServer(server_stack.endpoint(port=700))
        server.put("hot", "value-hot", value_size=2000)
        server.put("cold", "value-cold", value_size=2000)
        cache = InNetworkCache(sim, service_port=700, capacity=8)
        cache.insert("hot", "value-hot", 2000)
        switch.add_processor(cache)
        client = KvsClient(client_stack.endpoint(), server_host.address, 700)
        for key in ("hot", "cold", "hot"):
            client.get(key)
        sim.run(until=milliseconds(5))
        report = sim.ledger.finalize(sim)
        assert report.ok, report.summary()
        assert client.hits_by_origin() == {"cache": 2, "server": 1}
        assert server.gets_served == 1
        assert report.consumed == cache.hits == 2

    def test_aggregation_consumes_chunks_and_injects_the_sum(self):
        sim = SanitizingSimulator(ledger=PacketLedger())
        switch, hosts, stacks = build_star(sim, 4)
        received = []
        stacks[0].endpoint(port=900, on_message=lambda endpoint, message:
                           received.append(message.payload))
        offload = AggregationOffload(sim, service_port=900, n_workers=3,
                                     ps_address=hosts[0].address,
                                     ps_port=900)
        switch.add_processor(offload)
        for worker_id, stack in enumerate(stacks[1:]):
            stack.endpoint().send_message(
                hosts[0].address, 900, 1000,
                payload=GradientChunk(1, 0, worker_id, [1.0, 2.0]))
        sim.run(until=milliseconds(5))
        report = sim.ledger.finalize(sim)
        assert report.ok, report.summary()
        assert [chunk.values for chunk in received] == [[3.0, 6.0]]
        assert report.consumed == offload.chunks_absorbed == 3

    def test_late_duplicate_chunk_is_reacked_not_reaggregated(self):
        sim = SanitizingSimulator(ledger=PacketLedger())
        switch, hosts, stacks = build_star(sim, 3)
        received = []
        stacks[0].endpoint(port=900, on_message=lambda endpoint, message:
                           received.append(message.payload))
        offload = AggregationOffload(sim, service_port=900, n_workers=2,
                                     ps_address=hosts[0].address,
                                     ps_port=900)
        switch.add_processor(offload)
        workers = [stack.endpoint() for stack in stacks[1:]]
        for worker_id, endpoint in enumerate(workers):
            endpoint.send_message(
                hosts[0].address, 900, 1000,
                payload=GradientChunk(1, 0, worker_id, [1.0, 2.0]))
        # Worker 0's chunk again, after the sum has gone out.
        sim.schedule(milliseconds(1), lambda: workers[0].send_message(
            hosts[0].address, 900, 1000,
            payload=GradientChunk(1, 0, 0, [1.0, 2.0])))
        sim.run(until=milliseconds(5))
        report = sim.ledger.finalize(sim)
        assert report.ok, report.summary()
        assert [chunk.values for chunk in received] == [[2.0, 4.0]]
        assert offload.chunks_absorbed == 2
        assert report.consumed == 3

    def test_tcp_bridge_gateways_conserve_packets(self):
        # The examples/tcp_bridge.py topology: TCP islands around a
        # sprayed two-path MTP core.
        sim = SanitizingSimulator(ledger=PacketLedger())
        net = Network(sim)
        client = net.add_host("client")
        server = net.add_host("server")
        gw_a = TcpMtpGateway(sim, "gwA", listen_port=80)
        gw_b = TcpMtpGateway(sim, "gwB")
        net.add_node(gw_a)
        net.add_node(gw_b)
        sw1 = net.add_switch("sw1", selector=PacketSpraySelector())
        sw2 = net.add_switch("sw2")
        queue = lambda: DropTailQueue(128, 20)
        net.connect(client, gw_a, gbps(10), microseconds(2))
        net.connect(gw_a, sw1, gbps(10), microseconds(2),
                    queue_factory=queue)
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
        TcpStack(server).listen(80, lambda conn: ConnectionCallbacks(
            on_data=lambda c, n: received.__setitem__(0, received[0] + n)))
        TcpStack(client).connect(gw_a.address, 80, ConnectionCallbacks(
            on_connected=lambda c: c.send(200_000)))
        sim.run(until=milliseconds(100))
        report = sim.ledger.finalize(sim)
        assert received[0] == 200_000
        assert report.ok, report.summary()
        assert report.injected == report.delivered > 0
        assert not report.leaked


class TestExperimentConservation:
    """Acceptance: the ledger passes on real experiment topologies."""

    def test_fig5_mtp_conserves_packets(self):
        sim = Simulator()
        sim.ledger = PacketLedger()
        run_fig5("mtp", Fig5Config(duration_ns=microseconds(300)), sim=sim)
        report = sim.ledger.finalize(sim)
        assert report.injected > 0
        assert report.ok, report.summary()

    def test_fig5_dctcp_conserves_packets(self):
        sim = Simulator()
        sim.ledger = PacketLedger()
        run_fig5("dctcp", Fig5Config(duration_ns=microseconds(300)), sim=sim)
        report = sim.ledger.finalize(sim)
        assert report.injected > 0
        assert report.ok, report.summary()

    def test_fig2_proxy_conserves_packets(self):
        sim = Simulator()
        sim.ledger = PacketLedger()
        run_fig2(Fig2Config(transfer_bytes=256 * 1024,
                            duration_ns=microseconds(800)), sim=sim)
        report = sim.ledger.finalize(sim)
        assert report.injected > 0
        assert report.ok, report.summary()
