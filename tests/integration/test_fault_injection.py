"""Failure injection: transports must survive random loss, ACK loss, and
blackouts."""

import pytest

from repro.analysis import PacketLedger
from repro.core import MtpStack
from repro.core.header import KIND_ACK, KIND_DATA
from repro.net import (BlackoutProcessor, CorruptionProcessor,
                       DeterministicDropProcessor, DropTailQueue, Network,
                       RandomDropProcessor, drop_acks_filter)
from repro.sim import gbps, microseconds, milliseconds
from repro.transport import ConnectionCallbacks, TcpStack
from repro.transport.tcp import FLAG_ACK


def switched_pair(sim):
    net = Network(sim)
    a = net.add_host("a")
    b = net.add_host("b")
    sw = net.add_switch("sw")
    queue = lambda: DropTailQueue(128, 20)
    net.connect(a, sw, gbps(10), microseconds(2), queue_factory=queue)
    net.connect(sw, b, gbps(10), microseconds(2), queue_factory=queue)
    net.install_routes()
    return net, a, b, sw


class TestMtpUnderFaults:
    @pytest.mark.parametrize("loss", [0.01, 0.05, 0.2])
    def test_random_loss(self, sim, seeds, loss):
        net, a, b, sw = switched_pair(sim)
        dropper = RandomDropProcessor(loss, seeds.stream("loss"))
        sw.add_processor(dropper)
        inbox = []
        MtpStack(b).endpoint(port=100,
                             on_message=lambda ep, msg: inbox.append(msg))
        sender = MtpStack(a).endpoint()
        for _ in range(20):
            sender.send_message(b.address, 100, 20_000)
        sim.run(until=milliseconds(500))
        assert len(inbox) == 20
        assert dropper.dropped > 0
        assert sender.retransmissions >= dropper.dropped / 2

    def test_ack_loss_only(self, sim, seeds):
        net, a, b, sw = switched_pair(sim)
        sw.add_processor(RandomDropProcessor(0.3, seeds.stream("ackloss"),
                                             match=drop_acks_filter))
        done = []
        MtpStack(b).endpoint(port=100)
        sender = MtpStack(a).endpoint()
        for _ in range(10):
            sender.send_message(b.address, 100, 10_000,
                                on_complete=done.append)
        sim.run(until=milliseconds(500))
        assert len(done) == 10  # lost ACKs only cost retransmissions

    def test_every_nth_packet_dropped(self, sim):
        net, a, b, sw = switched_pair(sim)
        dropper = DeterministicDropProcessor(every_nth=7)
        sw.add_processor(dropper)
        inbox = []
        MtpStack(b).endpoint(port=100,
                             on_message=lambda ep, msg: inbox.append(msg))
        MtpStack(a).endpoint().send_message(b.address, 100, 100_000)
        sim.run(until=milliseconds(500))
        assert len(inbox) == 1
        assert dropper.dropped > 0

    def test_blackout_recovery(self, sim):
        net, a, b, sw = switched_pair(sim)
        blackout = BlackoutProcessor(
            sim, [(microseconds(10), microseconds(300))])
        sw.add_processor(blackout)
        inbox = []
        MtpStack(b).endpoint(port=100,
                             on_message=lambda ep, msg: inbox.append(msg))
        sender = MtpStack(a).endpoint()
        sender.send_message(b.address, 100, 200_000)
        sim.run(until=milliseconds(500))
        assert blackout.dropped > 0
        assert len(inbox) == 1


class TestTcpUnderFaults:
    @pytest.mark.parametrize("loss", [0.01, 0.05])
    def test_random_loss(self, sim, seeds, loss):
        net, a, b, sw = switched_pair(sim)
        sw.add_processor(RandomDropProcessor(loss, seeds.stream("tcploss")))
        received = [0]
        stack_b = TcpStack(b)
        stack_b.listen(80, lambda conn: ConnectionCallbacks(
            on_data=lambda c, n: received.__setitem__(0, received[0] + n)))
        stack_a = TcpStack(a)
        stack_a.connect(b.address, 80, ConnectionCallbacks(
            on_connected=lambda c: (c.send(500_000), c.close())))
        sim.run(until=milliseconds(800))
        assert received[0] == 500_000

    def test_blackout_recovery(self, sim):
        net, a, b, sw = switched_pair(sim)
        sw.add_processor(BlackoutProcessor(
            sim, [(microseconds(100), microseconds(900))]))
        received = [0]
        TcpStack(b).listen(80, lambda conn: ConnectionCallbacks(
            on_data=lambda c, n: received.__setitem__(0, received[0] + n)))
        TcpStack(a).connect(b.address, 80, ConnectionCallbacks(
            on_connected=lambda c: c.send(100_000)))
        sim.run(until=milliseconds(800))
        assert received[0] == 100_000

    def test_handshake_through_loss(self, sim, seeds):
        net, a, b, sw = switched_pair(sim)
        sw.add_processor(RandomDropProcessor(0.4, seeds.stream("syn")))
        established = []
        TcpStack(b).listen(80, lambda conn: ConnectionCallbacks())
        TcpStack(a).connect(b.address, 80, ConnectionCallbacks(
            on_connected=lambda c: established.append(c)))
        sim.run(until=milliseconds(2000))
        assert established  # SYN retries eventually get through


class TestFaultValidation:
    def test_bad_probability(self, seeds):
        with pytest.raises(ValueError):
            RandomDropProcessor(1.5, seeds.stream("x"))

    def test_bad_nth(self):
        with pytest.raises(ValueError):
            DeterministicDropProcessor(0)

    def test_bad_window(self, sim):
        with pytest.raises(ValueError):
            BlackoutProcessor(sim, [(100, 100)])

    def test_in_outage(self, sim):
        blackout = BlackoutProcessor(sim, [(10, 20), (30, 40)])
        assert blackout.in_outage(15)
        assert not blackout.in_outage(25)
        assert blackout.in_outage(30)
        assert not blackout.in_outage(40)

    def test_overlapping_windows_merge(self, sim):
        blackout = BlackoutProcessor(sim, [(10, 30), (20, 40), (2, 5)])
        assert blackout.outages == [(2, 5), (10, 40)]
        # Membership over the merged span: the overlap seam (30) and the
        # interior of the second window stay inside.
        for inside in (2, 4, 10, 20, 29, 30, 39):
            assert blackout.in_outage(inside), inside
        for outside in (0, 1, 5, 9, 40, 100):
            assert not blackout.in_outage(outside), outside

    def test_adjacent_windows_merge(self, sim):
        # [10, 20) followed by [20, 30) has no gap at t=20: the merged
        # window must not report a one-tick flicker of connectivity.
        blackout = BlackoutProcessor(sim, [(10, 20), (20, 30)])
        assert blackout.outages == [(10, 30)]
        assert blackout.in_outage(20)
        assert not blackout.in_outage(30)

    def test_unsorted_windows_accepted(self, sim):
        blackout = BlackoutProcessor(sim, [(50, 60), (10, 20)])
        assert blackout.outages == [(10, 20), (50, 60)]
        assert blackout.in_outage(55)
        assert not blackout.in_outage(30)

    def test_any_bad_window_rejected(self, sim):
        with pytest.raises(ValueError):
            BlackoutProcessor(sim, [(10, 20), (40, 30)])

    def test_bad_corruption_probability(self, seeds):
        with pytest.raises(ValueError):
            CorruptionProcessor(-0.1, seeds.stream("c"))


class _PacketTap:
    """Offload that snapshots traversing packets without modifying them.

    Packet shells are pooled and recycled after delivery (their
    ``header`` is cleared), so the tap must evaluate the filter and
    capture the header *while the packet traverses*; header objects are
    never reused, so retaining them is safe.
    """

    def __init__(self):
        self.seen = []  # (header, drop_acks_filter verdict) pairs

    def process(self, packet, switch, ingress):
        self.seen.append((packet.header, drop_acks_filter(packet)))
        return None


class TestDropAcksFilter:
    """The ACK matcher against *real* packets captured from live runs."""

    def test_matches_real_mtp_acks(self, sim):
        net, a, b, sw = switched_pair(sim)
        tap = _PacketTap()
        sw.add_processor(tap)
        MtpStack(b).endpoint(port=100)
        MtpStack(a).endpoint().send_message(b.address, 100, 30_000)
        sim.run(until=milliseconds(5))
        kinds = {header.kind for header, _ in tap.seen}
        assert kinds == {KIND_DATA, KIND_ACK}  # both directions captured
        for header, matched in tap.seen:
            assert matched == (header.kind == KIND_ACK), header

    def test_matches_real_tcp_acks(self, sim):
        net, a, b, sw = switched_pair(sim)
        tap = _PacketTap()
        sw.add_processor(tap)
        TcpStack(b).listen(80, lambda conn: ConnectionCallbacks())
        TcpStack(a).connect(b.address, 80, ConnectionCallbacks(
            on_connected=lambda c: c.send(30_000)))
        sim.run(until=milliseconds(5))
        pure_acks = [header for header, matched in tap.seen if matched]
        data_segments = [(header, matched) for header, matched in tap.seen
                         if header.payload_len > 0]
        assert pure_acks and data_segments
        for header in pure_acks:
            assert header.payload_len == 0
            assert header.flags & FLAG_ACK
        for header, matched in data_segments:
            assert not matched, header


class TestCorruptionChecksum:
    def test_corrupted_payloads_dropped_then_repaired(self, sim, seeds):
        ledger = sim.ledger = PacketLedger()
        net, a, b, sw = switched_pair(sim)
        corruptor = CorruptionProcessor(0.1, seeds.stream("bitrot"))
        sw.add_processor(corruptor)
        inbox = []
        MtpStack(b).endpoint(port=100,
                             on_message=lambda ep, msg: inbox.append(msg))
        sender = MtpStack(a).endpoint()
        sender.send_message(b.address, 100, 100_000)
        sim.run(until=milliseconds(500))
        # Damage happened, the receivers' checksums caught every instance
        # (the corruptor sits on the switch and damages both directions,
        # so drops land at whichever host the damaged packet reached),
        # and retransmissions still completed the message.
        assert corruptor.corrupted > 0
        caught = (ledger.drop_reasons.get("a:checksum", 0)
                  + ledger.drop_reasons.get("b:checksum", 0))
        assert caught == corruptor.corrupted
        assert len(inbox) == 1

    def test_inactive_corruptor_is_harmless(self, sim, seeds):
        ledger = sim.ledger = PacketLedger()
        net, a, b, sw = switched_pair(sim)
        corruptor = CorruptionProcessor(1.0, seeds.stream("off"))
        corruptor.active = False
        sw.add_processor(corruptor)
        inbox = []
        MtpStack(b).endpoint(port=100,
                             on_message=lambda ep, msg: inbox.append(msg))
        MtpStack(a).endpoint().send_message(b.address, 100, 20_000)
        sim.run(until=milliseconds(50))
        assert corruptor.corrupted == 0
        assert "b:checksum" not in ledger.drop_reasons
        assert len(inbox) == 1
