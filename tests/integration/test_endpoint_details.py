"""MTP endpoint internals exercised end-to-end: retransmission timers,
duplicate handling, priority classes, scheduler fairness."""

import pytest

from repro.core import (EcnFeedbackSource, KIND_ACK, MtpStack,
                        PathletRegistry)
from repro.core.endpoint import MIN_RTO_NS
from repro.net import DeterministicDropProcessor, DropTailQueue, Network
from repro.sim import gbps, mbps, microseconds, milliseconds


def switched_pair(sim, rate=gbps(10)):
    net = Network(sim)
    a = net.add_host("a")
    b = net.add_host("b")
    sw = net.add_switch("sw")
    queue = lambda: DropTailQueue(128, 20)
    net.connect(a, sw, rate, microseconds(2), queue_factory=queue)
    net.connect(sw, b, rate, microseconds(2), queue_factory=queue)
    net.install_routes()
    # Pathlets on the sender NIC and the switch egress: end-host resources
    # are pathlets too (Section 2.2), and without feedback the window has
    # nothing to converge against.
    registry = PathletRegistry(sim)
    registry.register(a.port_to(sw), EcnFeedbackSource(20))
    registry.register(sw.port_to(b), EcnFeedbackSource(20))
    return net, a, b, sw


class TestRetransmissionTimer:
    def test_rto_backs_off_from_srtt(self, sim):
        net, a, b, sw = switched_pair(sim)
        inbox = []
        MtpStack(b).endpoint(port=100,
                             on_message=lambda ep, msg: inbox.append(msg))
        sender = MtpStack(a).endpoint()
        sender.send_message(b.address, 100, 50_000)
        sim.run(until=milliseconds(10))
        assert sender.rtt.srtt is not None
        assert sender.rtt.rto >= MIN_RTO_NS
        assert sender.rtt.rto >= sender.rtt.srtt

    def test_timer_idle_when_nothing_outstanding(self, sim):
        net, a, b, sw = switched_pair(sim)
        MtpStack(b).endpoint(port=100)
        sender = MtpStack(a).endpoint()
        sender.send_message(b.address, 100, 1000)
        sim.run(until=milliseconds(10))
        assert sender.outstanding_messages == 0
        assert not sender._rto_timer.running

    def test_lost_single_packet_repaired_by_timeout(self, sim):
        net, a, b, sw = switched_pair(sim)
        # Drop exactly the first data packet seen.
        dropper = DeterministicDropProcessor(
            every_nth=1,
            match=lambda packet: packet.protocol == "mtp"
            and packet.header.kind != KIND_ACK)
        dropper.every_nth = 10 ** 9  # arm below

        class DropFirst:
            def __init__(self):
                self.dropped = False

            def process(self, packet, switch, ingress):
                if (not self.dropped and packet.protocol == "mtp"
                        and packet.header.kind != KIND_ACK):
                    self.dropped = True
                    return []
                return None

        sw.add_processor(DropFirst())
        inbox = []
        MtpStack(b).endpoint(port=100,
                             on_message=lambda ep, msg: inbox.append(msg))
        sender = MtpStack(a).endpoint()
        sender.send_message(b.address, 100, 1000)
        sim.run(until=milliseconds(50))
        assert len(inbox) == 1
        assert sender.retransmissions == 1


class TestDuplicateHandling:
    def test_completed_message_reacked(self, sim):
        """A duplicated data packet after completion is re-ACKed, not
        re-delivered."""
        net, a, b, sw = switched_pair(sim)

        class Duplicator:
            def __init__(self):
                self.done = False

            def process(self, packet, switch, ingress):
                if (not self.done and packet.protocol == "mtp"
                        and packet.header.kind != KIND_ACK):
                    self.done = True
                    import copy
                    clone = copy.copy(packet)
                    clone.header = packet.header  # same message identity
                    return [packet, clone]
                return None

        sw.add_processor(Duplicator())
        inbox = []
        receiver = MtpStack(b).endpoint(
            port=100, on_message=lambda ep, msg: inbox.append(msg))
        sender = MtpStack(a).endpoint()
        sender.send_message(b.address, 100, 500)
        sim.run(until=milliseconds(10))
        assert len(inbox) == 1  # delivered once despite duplication
        assert receiver.messages_delivered == 1


class TestPriorityClasses:
    def test_strict_priority_between_classes(self, sim):
        net, a, b, sw = switched_pair(sim, rate=mbps(100))
        order = []
        MtpStack(b).endpoint(
            port=100, on_message=lambda ep, msg: order.append(msg.priority))
        sender = MtpStack(a).endpoint()
        # Low priority (larger number) first, then urgent.
        sender.send_message(b.address, 100, 200_000, priority=10)
        sender.send_message(b.address, 100, 200_000, priority=0)
        sim.run(until=milliseconds(200))
        assert order == [0, 10]

    def test_same_priority_interleaves(self, sim):
        """Two same-priority elephants finish near each other (round
        robin), not strictly one after the other."""
        net, a, b, sw = switched_pair(sim, rate=mbps(100))
        completions = []
        MtpStack(b).endpoint(
            port=100,
            on_message=lambda ep, msg: completions.append(
                (msg.msg_id, ep.sim.now)))
        sender = MtpStack(a).endpoint()
        sender.send_message(b.address, 100, 300_000)
        sender.send_message(b.address, 100, 300_000)
        sim.run(until=milliseconds(200))
        assert len(completions) == 2
        (first_id, first_at), (second_id, second_at) = completions
        # Round robin: the two finish within ~15% of each other, unlike
        # FIFO where the first finishes at half the second's time.
        assert (second_at - first_at) < 0.2 * second_at

    def test_negative_priorities_allowed(self, sim):
        net, a, b, sw = switched_pair(sim)
        order = []
        MtpStack(b).endpoint(
            port=100, on_message=lambda ep, msg: order.append(msg.priority))
        sender = MtpStack(a).endpoint()
        sender.send_message(b.address, 100, 100_000, priority=0)
        sender.send_message(b.address, 100, 1000, priority=-5)
        sim.run(until=milliseconds(50))
        assert order[0] == -5


class TestEndpointLifecycle:
    def test_ephemeral_ports_unique(self, sim):
        net, a, b, sw = switched_pair(sim)
        stack = MtpStack(a)
        ports = {stack.endpoint().port for _ in range(10)}
        assert len(ports) == 10

    def test_ephemeral_ports_skip_bound_ports(self, sim):
        net, a, b, sw = switched_pair(sim)
        stack = MtpStack(a)
        first = stack.endpoint().port
        stack.endpoint(port=first + 1)
        stack.endpoint(port=first + 2)
        assert stack.endpoint().port == first + 3
        assert stack.endpoint().port == first + 4

    def test_bound_port_collision_rejected(self, sim):
        net, a, b, sw = switched_pair(sim)
        stack = MtpStack(a)
        stack.endpoint(port=100)
        with pytest.raises(ValueError):
            stack.endpoint(port=100)

    def test_invalid_message_size_rejected(self, sim):
        net, a, b, sw = switched_pair(sim)
        sender = MtpStack(a).endpoint()
        with pytest.raises(ValueError):
            sender.send_message(b.address, 100, 0)

    def test_stats_consistent_after_run(self, sim):
        net, a, b, sw = switched_pair(sim)
        inbox = []
        receiver = MtpStack(b).endpoint(
            port=100, on_message=lambda ep, msg: inbox.append(msg))
        sender = MtpStack(a).endpoint()
        for _ in range(10):
            sender.send_message(b.address, 100, 5000)
        sim.run(until=milliseconds(50))
        assert sender.messages_sent == 10
        assert sender.messages_completed == 10
        assert receiver.messages_delivered == 10
        assert receiver.bytes_delivered == 50_000
