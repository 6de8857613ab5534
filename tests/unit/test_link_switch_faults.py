"""Link up/down, switch crash/restart, and failover path selection.

The fault model's contract, packet by packet: a downed link refuses
egress and loses whatever was serializing or propagating (the epoch
guard), queued packets survive the outage, a crashed switch flushes its
queues and takes its links down, and :class:`FailoverSelector` reroutes
only after its loss-of-light detection delay.
"""

import pytest

from repro.analysis import PacketLedger, SanitizingSimulator
from repro.net import FailoverSelector, Network, Packet
from repro.sim import gbps, microseconds, transmission_delay


class Sink:
    def __init__(self, sim):
        self.sim = sim
        self.received = []

    def handle_packet(self, packet):
        self.received.append((self.sim.now, packet))


def two_hosts(sim, rate=gbps(10), delay=microseconds(1)):
    net = Network(sim)
    a = net.add_host("a")
    b = net.add_host("b")
    link = net.connect(a, b, rate, delay)
    net.install_routes()
    sink = Sink(sim)
    b.register_protocol("test", sink)
    return net, a, b, link, sink


def line_through_switch(sim, rate=gbps(10), delay=microseconds(1)):
    net = Network(sim)
    a = net.add_host("a")
    b = net.add_host("b")
    sw = net.add_switch("sw")
    net.connect(a, sw, rate, delay)
    net.connect(sw, b, rate, delay)
    net.install_routes()
    sink = Sink(sim)
    b.register_protocol("test", sink)
    return net, a, b, sw, sink


class TestLinkDown:
    def test_egress_refused_while_down(self, sim):
        net, a, b, link, sink = two_hosts(sim)
        link.set_down()
        assert not link.up
        assert a.send(Packet(a.address, b.address, 1500, "test")) is False
        assert link.port_a.link_down_drops == 1
        sim.run()
        assert sink.received == []

    def test_packet_serializing_is_lost(self, sim):
        net, a, b, link, sink = two_hosts(sim)
        a.send(Packet(a.address, b.address, 1500, "test"))
        # Fail the link mid-serialization: the partial frame is lost.
        tx = transmission_delay(1500, gbps(10))
        sim.at(tx // 2, link.set_down)
        sim.run()
        assert sink.received == []
        assert link.port_a.link_down_drops == 1

    def test_packet_propagating_is_lost(self, sim):
        net, a, b, link, sink = two_hosts(sim)
        a.send(Packet(a.address, b.address, 1500, "test"))
        # Serialization done, bits on the wire: cut during propagation.
        tx = transmission_delay(1500, gbps(10))
        sim.at(tx + microseconds(1) // 2, link.set_down)
        sim.run()
        assert sink.received == []
        assert link.port_a.link_down_drops == 1

    def test_queued_packets_survive_and_drain_after_repair(self, sim):
        net, a, b, link, sink = two_hosts(sim)
        link.set_down()
        port = a.egress_port(b.address)
        for _ in range(3):
            # Bypass the NIC refusal: enqueue directly, as packets that
            # were already queued when the link dropped.
            port.queue.enqueue(Packet(a.address, b.address, 1500, "test"),
                              sim.now)
        sim.at(microseconds(50), link.set_up)
        sim.run()
        assert len(sink.received) == 3
        assert all(t >= microseconds(50) for t, _ in sink.received)

    def test_set_down_idempotent(self, sim):
        net, a, b, link, sink = two_hosts(sim)
        epoch = link.port_a.down_epoch
        link.set_down()
        link.set_down()
        assert link.port_a.down_epoch == epoch + 1
        link.set_up()
        link.set_up()
        assert link.up

    def test_both_directions_fail(self, sim):
        net, a, b, link, sink = two_hosts(sim)
        link.set_down()
        assert not link.port_a.up and not link.port_b.up
        assert b.send(Packet(b.address, a.address, 100, "test")) is False

    def test_ledger_accounts_link_down_losses(self):
        sim = SanitizingSimulator(ledger=PacketLedger())
        net, a, b, link, sink = two_hosts(sim)
        a.send(Packet(a.address, b.address, 1500, "test"))
        tx = transmission_delay(1500, gbps(10))
        sim.at(tx // 2, link.set_down)
        sim.run()
        report = sim.ledger.finalize(sim)
        assert report.ok
        assert report.drop_reasons.get("a->b:link_down") == 1


class TestSwitchCrash:
    def test_crash_flushes_queues_and_downs_links(self, sim):
        ledger = sim.ledger = PacketLedger()
        # Fast ingress, slow egress: the switch's egress queue fills.
        net = Network(sim)
        a = net.add_host("a")
        b = net.add_host("b")
        sw = net.add_switch("sw")
        net.connect(a, sw, gbps(100), microseconds(1))
        net.connect(sw, b, gbps(1), microseconds(1))
        net.install_routes()
        sink = Sink(sim)
        b.register_protocol("test", sink)
        for _ in range(5):
            a.send(Packet(a.address, b.address, 1500, "test"))
        # Crash while packets sit queued behind the slow egress link.
        sim.at(microseconds(5), sw.crash)
        sim.run()
        assert not sw.alive
        assert sum(count for reason, count in ledger.drop_reasons.items()
                   if reason.endswith(":switch_crash")) > 0
        assert all(not port.up for port in sw.ports)
        assert len(sink.received) < 5

    def test_crash_calls_offload_hook_and_detaches(self, sim):
        net, a, b, sw, sink = line_through_switch(sim)
        crashes = []

        class Checkpointer:
            def process(self, packet, switch, ingress):
                return None

            def on_switch_crash(self, switch):
                crashes.append(switch.name)

        sw.add_processor(Checkpointer())
        sw.crash()
        assert crashes == ["sw"]
        assert sw.processors == []

    def test_crash_idempotent(self, sim):
        net, a, b, sw, sink = line_through_switch(sim)
        sw.crash()
        epoch = sw.ports[0].down_epoch
        sw.crash()
        assert sw.ports[0].down_epoch == epoch

    def test_crashed_switch_blackholes(self, sim):
        ledger = sim.ledger = PacketLedger()
        net, a, b, sw, sink = line_through_switch(sim)
        sw.crash()
        # As if it left a's wire in the same tick as the crash.
        packet = Packet(a.address, b.address, 100, "test")
        ledger.packet_injected(packet, "a")
        sw.receive(packet, sw.ports[0])
        assert ledger.drop_reasons == {"sw:switch_down": 1}

    def test_restart_restores_forwarding(self, sim):
        net, a, b, sw, sink = line_through_switch(sim)
        sw.crash()
        sw.restart()
        assert sw.alive
        assert all(port.up for port in sw.ports)
        a.send(Packet(a.address, b.address, 1500, "test"))
        sim.run()
        assert len(sink.received) == 1

    def test_restart_with_checkpointed_processors(self, sim):
        net, a, b, sw, sink = line_through_switch(sim)

        class Tap:
            def __init__(self):
                self.count = 0

            def process(self, packet, switch, ingress):
                self.count += 1
                return None

        sw.crash()
        rebuilt = Tap()
        sw.restart(processors=[rebuilt])
        assert sw.processors == [rebuilt]
        a.send(Packet(a.address, b.address, 1500, "test"))
        sim.run()
        assert rebuilt.count == 1

    def test_restart_while_alive_is_noop(self, sim):
        net, a, b, sw, sink = line_through_switch(sim)

        class Tap:
            def process(self, packet, switch, ingress):
                return None

        original = sw.processors
        sw.restart(processors=[Tap()])
        assert sw.processors is original


class _FakePort:
    def __init__(self, up=True):
        self.up = up


class TestFailoverSelector:
    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            FailoverSelector(-1)

    def test_primary_preferred_while_up(self):
        selector = FailoverSelector(microseconds(50))
        primary, backup = _FakePort(), _FakePort()
        assert selector.select(None, [primary, backup], 0) is primary
        assert selector.failovers == 0

    def test_blackholes_during_detection_delay(self):
        selector = FailoverSelector(microseconds(50))
        primary, backup = _FakePort(up=False), _FakePort()
        # Loss of light not yet confirmed: traffic still hits the dead
        # primary (and is lost there), exactly like a real outage window.
        assert selector.select(None, [primary, backup], 0) is primary
        assert selector.select(None, [primary, backup],
                               microseconds(49)) is primary
        assert selector.failovers == 0

    def test_fails_over_after_detection_delay(self):
        selector = FailoverSelector(microseconds(50))
        primary, backup = _FakePort(up=False), _FakePort()
        selector.select(None, [primary, backup], 0)
        chosen = selector.select(None, [primary, backup], microseconds(50))
        assert chosen is backup
        assert selector.failovers == 1
        # Staying failed over doesn't re-count.
        selector.select(None, [primary, backup], microseconds(60))
        assert selector.failovers == 1

    def test_zero_delay_fails_over_immediately(self):
        selector = FailoverSelector(0)
        primary, backup = _FakePort(up=False), _FakePort()
        assert selector.select(None, [primary, backup], 0) is backup

    def test_reverts_to_primary_on_repair(self):
        selector = FailoverSelector(0)
        primary, backup = _FakePort(up=False), _FakePort()
        assert selector.select(None, [primary, backup], 0) is backup
        primary.up = True
        assert selector.select(None, [primary, backup], 10) is primary
        # A second outage is a fresh failover (fresh detection window).
        primary.up = False
        assert selector.select(None, [primary, backup], 20) is backup
        assert selector.failovers == 2

    def test_no_live_backup_returns_primary(self):
        selector = FailoverSelector(0)
        primary = _FakePort(up=False)
        backup = _FakePort(up=False)
        assert selector.select(None, [primary, backup], 0) is primary
        assert selector.failovers == 0
