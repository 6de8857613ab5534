"""MTP end-to-end: message delivery, reliability, pathlet CC, blob mode."""

import pytest

from repro.analysis import PacketLedger
from repro.core import (BlobReceiver, BlobSender, EcnFeedbackSource,
                        MtpStack, PathletRegistry, UNKNOWN_PATHLET)
from repro.net import (AlternatingSelector, DropTailQueue, Network)
from repro.sim import gbps, mbps, microseconds, milliseconds


def mtp_pair(sim, rate=gbps(10), delay=microseconds(5), queue_capacity=128,
             ecn_threshold=20):
    """a --link-- b with the a->b egress registered as an ECN pathlet."""
    net = Network(sim)
    a = net.add_host("a")
    b = net.add_host("b")
    net.connect(a, b, rate, delay,
                queue_factory=lambda: DropTailQueue(queue_capacity,
                                                    ecn_threshold))
    net.install_routes()
    registry = PathletRegistry(sim)
    registry.register(a.port_to(b), EcnFeedbackSource(ecn_threshold))
    registry.register(b.port_to(a), EcnFeedbackSource(ecn_threshold))
    return net, a, b, MtpStack(a), MtpStack(b), registry


class Inbox:
    def __init__(self):
        self.messages = []

    def __call__(self, endpoint, message):
        self.messages.append(message)


class TestDelivery:
    def test_single_packet_message(self, sim):
        net, a, b, stack_a, stack_b, _ = mtp_pair(sim)
        inbox = Inbox()
        stack_b.endpoint(port=100, on_message=inbox)
        sender = stack_a.endpoint()
        completed = []
        sender.send_message(b.address, 100, 500,
                            on_complete=completed.append)
        sim.run(until=milliseconds(10))
        assert len(inbox.messages) == 1
        assert inbox.messages[0].size == 500
        assert len(completed) == 1

    @pytest.mark.parametrize("size", [1, 1460, 1461, 100_000, 1_000_000])
    def test_message_sizes(self, sim, size):
        net, a, b, stack_a, stack_b, _ = mtp_pair(sim)
        inbox = Inbox()
        stack_b.endpoint(port=100, on_message=inbox)
        sender = stack_a.endpoint()
        sender.send_message(b.address, 100, size)
        sim.run(until=milliseconds(100))
        assert len(inbox.messages) == 1
        assert inbox.messages[0].size == size

    def test_no_connection_setup_needed(self, sim):
        # First data packet leaves immediately: no handshake RTT.
        net, a, b, stack_a, stack_b, _ = mtp_pair(sim, delay=microseconds(10))
        inbox = Inbox()
        stack_b.endpoint(port=100, on_message=inbox)
        stack_a.endpoint().send_message(b.address, 100, 100)
        sim.run(until=milliseconds(10))
        # one-way latency + serialization, well under 2 RTTs
        assert inbox.messages[0].completed_at < 2 * 2 * microseconds(10)

    def test_many_messages_all_delivered(self, sim):
        net, a, b, stack_a, stack_b, _ = mtp_pair(sim)
        inbox = Inbox()
        stack_b.endpoint(port=100, on_message=inbox)
        sender = stack_a.endpoint()
        for _ in range(50):
            sender.send_message(b.address, 100, 10_000)
        sim.run(until=milliseconds(100))
        assert len(inbox.messages) == 50
        assert sender.outstanding_messages == 0

    def test_payload_passes_through(self, sim):
        net, a, b, stack_a, stack_b, _ = mtp_pair(sim)
        inbox = Inbox()
        stack_b.endpoint(port=100, on_message=inbox)
        payload = {"op": "GET", "key": "user:42"}
        stack_a.endpoint().send_message(b.address, 100, 200, payload=payload)
        sim.run(until=milliseconds(10))
        assert inbox.messages[0].payload is payload

    def test_unbound_port_counted(self, sim):
        ledger = sim.ledger = PacketLedger()
        net, a, b, stack_a, stack_b, _ = mtp_pair(sim)
        sender = stack_a.endpoint()
        sender.send_message(b.address, 4242, 100)
        sim.run(until=milliseconds(50))
        # b's stack received the data, had no endpoint for it, and never
        # acknowledged it.
        assert ledger.delivered >= 1
        assert b.port_to(a).packets_transmitted == 0
        assert sender.messages_completed == 0


class TestReliability:
    def test_recovers_from_drops(self, sim):
        net, a, b, stack_a, stack_b, _ = mtp_pair(sim, rate=mbps(100),
                                                  queue_capacity=4,
                                                  ecn_threshold=None)
        inbox = Inbox()
        stack_b.endpoint(port=100, on_message=inbox)
        sender = stack_a.endpoint()
        sender.send_message(b.address, 100, 300_000)
        sim.run(until=milliseconds(500))
        assert len(inbox.messages) == 1
        assert sender.retransmissions > 0

    def test_duplicate_data_reacked(self, sim):
        # Force a retransmission by delaying ACK processing: use heavy loss.
        net, a, b, stack_a, stack_b, _ = mtp_pair(sim, rate=mbps(50),
                                                  queue_capacity=2,
                                                  ecn_threshold=None)
        inbox = Inbox()
        stack_b.endpoint(port=100, on_message=inbox)
        sender = stack_a.endpoint()
        for _ in range(5):
            sender.send_message(b.address, 100, 50_000)
        sim.run(until=milliseconds(1000))
        assert len(inbox.messages) == 5
        assert sender.outstanding_messages == 0

    def test_rtt_estimated(self, sim):
        net, a, b, stack_a, stack_b, _ = mtp_pair(sim, delay=microseconds(25))
        inbox = Inbox()
        stack_b.endpoint(port=100, on_message=inbox)
        sender = stack_a.endpoint()
        sender.send_message(b.address, 100, 100_000)
        sim.run(until=milliseconds(100))
        assert sender.rtt.srtt is not None
        assert sender.rtt.srtt >= 2 * microseconds(25)


class TestPathletCc:
    def test_endpoint_learns_pathlet(self, sim):
        net, a, b, stack_a, stack_b, registry = mtp_pair(sim)
        inbox = Inbox()
        stack_b.endpoint(port=100, on_message=inbox)
        sender = stack_a.endpoint()
        sender.send_message(b.address, 100, 50_000)
        sim.run(until=milliseconds(50))
        path = stack_a.cc.path_for(b.address)
        assert path != (UNKNOWN_PATHLET,)
        assert len(path) == 1

    def test_window_evolves_per_pathlet(self, sim):
        net = Network(sim)
        a = net.add_host("a")
        b = net.add_host("b")
        sw1 = net.add_switch("sw1",
                             selector=AlternatingSelector(microseconds(100)))
        sw2 = net.add_switch("sw2")
        queue = lambda: DropTailQueue(128, 20)
        net.connect(a, sw1, gbps(10), microseconds(1), queue_factory=queue)
        fast = net.connect(sw1, sw2, gbps(10), microseconds(1),
                           queue_factory=queue)
        slow = net.connect(sw1, sw2, gbps(1), microseconds(1),
                           queue_factory=queue)
        net.connect(sw2, b, gbps(10), microseconds(1), queue_factory=queue)
        net.install_routes()
        registry = PathletRegistry(sim)
        fast_id = registry.register(fast.port_a, EcnFeedbackSource(20))
        slow_id = registry.register(slow.port_a, EcnFeedbackSource(20))
        stack_a, stack_b = MtpStack(a), MtpStack(b)
        inbox = Inbox()
        stack_b.endpoint(port=100, on_message=inbox)
        sender = stack_a.endpoint()
        BlobSender(sender, b.address, 100, total_bytes=2_000_000)
        sim.run(until=milliseconds(10))
        # Both pathlets were exercised and have separate congestion state.
        assert stack_a.cc.inflight(fast_id, "default") >= 0
        fast_window = stack_a.cc.window(fast_id, "default")
        slow_window = stack_a.cc.window(slow_id, "default")
        assert fast_window > 0 and slow_window > 0
        assert (fast_id,) in (stack_a.cc.path_for(b.address),) or \
               (slow_id,) in (stack_a.cc.path_for(b.address),)

    def test_priority_scheduling(self, sim):
        net, a, b, stack_a, stack_b, _ = mtp_pair(sim, rate=mbps(100))
        inbox = Inbox()
        stack_b.endpoint(port=100, on_message=inbox)
        sender = stack_a.endpoint()
        # Queue a large low-priority message, then an urgent small one.
        sender.send_message(b.address, 100, 500_000, priority=5)
        sender.send_message(b.address, 100, 1000, priority=0)
        sim.run(until=milliseconds(200))
        sizes_in_completion_order = [m.size for m in inbox.messages]
        assert sizes_in_completion_order[0] == 1000


class TestBlobMode:
    def test_blob_reassembled(self, sim):
        net, a, b, stack_a, stack_b, _ = mtp_pair(sim)
        blobs = []
        receiver = BlobReceiver(
            on_blob=lambda recv, blob_id, size: blobs.append(size))
        stack_b.endpoint(port=100, on_message=receiver)
        sender_endpoint = stack_a.endpoint()
        done = []
        BlobSender(sender_endpoint, b.address, 100, total_bytes=500_000,
                   on_complete=lambda blob: done.append(blob))
        sim.run(until=milliseconds(100))
        assert blobs == [500_000]
        assert len(done) == 1

    def test_blob_throughput_near_line_rate(self, sim):
        rate = gbps(10)
        net, a, b, stack_a, stack_b, _ = mtp_pair(sim, rate=rate)
        receiver = BlobReceiver()
        stack_b.endpoint(port=100, on_message=receiver)
        sender_endpoint = stack_a.endpoint()
        blob = BlobSender(sender_endpoint, b.address, 100,
                          total_bytes=5_000_000)
        sim.run(until=milliseconds(100))
        assert blob.done
        goodput = 5_000_000 * 8 * 1e9 / blob.completed_at
        assert goodput > 0.5 * rate

    def test_two_blobs_interleave(self, sim):
        net, a, b, stack_a, stack_b, _ = mtp_pair(sim)
        receiver = BlobReceiver()
        stack_b.endpoint(port=100, on_message=receiver)
        sender_endpoint = stack_a.endpoint()
        blob1 = BlobSender(sender_endpoint, b.address, 100, 200_000)
        blob2 = BlobSender(sender_endpoint, b.address, 100, 200_000)
        sim.run(until=milliseconds(100))
        assert blob1.done and blob2.done
        assert receiver.blobs_completed == 2
