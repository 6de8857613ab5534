"""RDMA service modes: RC/UC/UD semantics and their Section-2.4 limits."""

import pytest

from repro.net import (DropTailQueue, EcmpSelector, Network,
                       PacketSpraySelector, build_two_path)
from repro.sim import Simulator, gbps, mbps, microseconds, milliseconds
from repro.transport import RDMA_MAX_UD_PAYLOAD, RdmaStack


def rdma_pair(sim, mode, rate=gbps(1), queue_capacity=256,
              qp_rate=None, **qp_options):
    """``qp_rate`` above ``rate`` over-drives the link (RDMA has no CC)."""
    net = Network(sim)
    a = net.add_host("a")
    b = net.add_host("b")
    net.connect(a, b, rate, microseconds(5),
                queue_factory=lambda: DropTailQueue(queue_capacity))
    net.install_routes()
    stack_a, stack_b = RdmaStack(a), RdmaStack(b)
    inbox = []
    qp_b = stack_b.create_qp(mode, on_message=lambda qp, src, size:
                             inbox.append(size))
    qp_a = stack_a.create_qp(mode, rate_bps=qp_rate or rate, **qp_options)
    qp_a.connect(b.address, qp_b.qp_number)
    qp_b.connect(a.address, qp_a.qp_number)
    return net, a, b, qp_a, qp_b, inbox


class TestUd:
    def test_single_packet_messages(self, sim):
        net, a, b, qp_a, qp_b, inbox = rdma_pair(sim, "ud")
        for _ in range(10):
            qp_a.send_message(1000)
        sim.run(until=milliseconds(5))
        assert len(inbox) == 10

    def test_rejects_multi_packet_messages(self, sim):
        net, a, b, qp_a, qp_b, inbox = rdma_pair(sim, "ud")
        with pytest.raises(ValueError):
            qp_a.send_message(RDMA_MAX_UD_PAYLOAD + 1)

    def test_loss_is_silent(self, sim):
        net, a, b, qp_a, qp_b, inbox = rdma_pair(sim, "ud", rate=mbps(100),
                                                 qp_rate=gbps(1),
                                                 queue_capacity=4)
        for _ in range(200):
            qp_a.send_message(1400)
        sim.run(until=milliseconds(50))
        assert 0 < len(inbox) < 200  # whatever survived; no recovery


class TestUc:
    def test_in_order_delivery(self, sim):
        net, a, b, qp_a, qp_b, inbox = rdma_pair(sim, "uc")
        qp_a.send_message(50_000)
        sim.run(until=milliseconds(10))
        assert len(inbox) == 1

    def test_loss_kills_current_message(self, sim):
        net, a, b, qp_a, qp_b, inbox = rdma_pair(sim, "uc",
                                                 rate=mbps(100),
                                                 qp_rate=gbps(1),
                                                 queue_capacity=4)
        for _ in range(5):
            qp_a.send_message(100_000)
        sim.run(until=milliseconds(50))
        assert len(inbox) < 5
        assert qp_b.packets_discarded > 0


class TestRc:
    def test_reliable_delivery(self, sim):
        net, a, b, qp_a, qp_b, inbox = rdma_pair(sim, "rc")
        qp_a.send_message(200_000)
        sim.run(until=milliseconds(50))
        assert inbox and sum(inbox) >= 200_000

    def test_recovers_from_loss_via_go_back_n(self, sim):
        # 1.5x overload: enough drops to force go-back-N, mild enough that
        # the (intentionally inefficient) recovery converges quickly.
        net, a, b, qp_a, qp_b, inbox = rdma_pair(sim, "rc", rate=mbps(200),
                                                 qp_rate=mbps(300),
                                                 queue_capacity=16)
        for _ in range(5):
            qp_a.send_message(50_000)
        sim.run(until=milliseconds(300))
        assert len(inbox) == 5
        assert qp_a.go_back_n_events + qp_a.retransmissions > 0

    def test_multipath_reordering_is_poison(self, sim):
        """Section 2.4: spraying an RC flow turns reordering into NAK and
        go-back-N storms, while ECMP (single path) is clean."""

        def run(selector):
            local = Simulator()
            # 10 Gbps pacing = 1.2 us between packets, smaller than the
            # 3 us path-delay skew: adjacent sprayed packets reorder.
            net, sender, receiver, sw1, sw2 = build_two_path(
                local, rate_a_bps=gbps(10), rate_b_bps=gbps(10),
                delay_a_ns=microseconds(5), delay_b_ns=microseconds(8),
                edge_rate_bps=gbps(40), edge_delay_ns=microseconds(1),
                queue_factory=lambda: DropTailQueue(256),
                selector=selector)
            inbox = []
            stack_r = RdmaStack(receiver)
            qp_r = stack_r.create_qp(
                "rc", on_message=lambda qp, src, size: inbox.append(size))
            stack_s = RdmaStack(sender)
            qp_s = stack_s.create_qp("rc", rate_bps=gbps(10))
            qp_s.connect(receiver.address, qp_r.qp_number)
            qp_r.connect(sender.address, qp_s.qp_number)
            for _ in range(5):
                qp_s.send_message(100_000)
            local.run(until=milliseconds(60))
            return len(inbox), qp_r.packets_discarded, qp_s.retransmissions

        ecmp_done, ecmp_discarded, _ = run(EcmpSelector())
        spray_done, spray_discarded, spray_retx = run(
            PacketSpraySelector())
        assert ecmp_done == 5
        assert ecmp_discarded == 0
        # Spraying: the receiver keeps seeing out-of-order PSNs.
        assert spray_discarded > 0
        assert spray_retx > 10

    def test_validation(self, sim):
        net, a, b, qp_a, qp_b, inbox = rdma_pair(sim, "rc")
        with pytest.raises(ValueError):
            qp_a.send_message(0)
        with pytest.raises(ValueError):
            qp_a.stack.create_qp("xx")
        unconnected = qp_a.stack.create_qp("rc")
        with pytest.raises(RuntimeError):
            unconnected.send_message(100)
