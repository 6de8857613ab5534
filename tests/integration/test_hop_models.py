"""The one-event hop and the two-event hop simulate the same network.

A port with no ``on_transmit`` hook schedules a packet's arrival when it
starts the packet; a port with a hook schedules a finish event at the
end of serialization, and the finish schedules the arrival.  A no-op
hook on every port runs the second model in the same build, so each
check here runs a scenario under both and compares what arrives where,
and when.
"""

import collections

import pytest

from repro.analysis import PacketLedger
from repro.experiments import Fig5Config, Fig6Config, run_fig5, run_fig6
from repro.experiments.common import reset_id_streams
from repro.net import Network, Packet
from repro.net.link import Port
from repro.net.packet import PACKET_POOL
from repro.sim import Simulator, gbps, microseconds, milliseconds
from repro.sim import transmission_delay


def _noop(packet):
    pass


def _hook_every_port(monkeypatch):
    """Give every port built from now on a no-op ``on_transmit`` hook."""
    init = Port.__init__

    def hooked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.on_transmit = _noop
    monkeypatch.setattr(Port, "__init__", hooked_init)


def _arrival_log(monkeypatch, scenario, hooked):
    """``(time, port, packet uid)`` of every arrival of one fresh run."""
    log = []
    deliver = Port._deliver

    def logged(self, packet, epoch=-1):
        log.append((self.sim.now, self.name, packet.uid))
        deliver(self, packet, epoch)

    reset_id_streams()
    PACKET_POOL._free.clear()
    with monkeypatch.context() as patch:
        patch.setattr(Port, "_deliver", logged)
        if hooked:
            _hook_every_port(patch)
        sim = Simulator()
        scenario(sim)
    return log, sim.events_executed


SCENARIOS = {
    "fig5-dctcp-2ms": lambda sim: run_fig5(
        "dctcp", Fig5Config(duration_ns=milliseconds(2)), sim=sim),
    "fig6-ecmp-2.5ms": lambda sim: run_fig6(
        "ecmp", Fig6Config(duration_ns=milliseconds(2.5)), sim=sim),
    "fig6-spray-2.5ms": lambda sim: run_fig6(
        "spray", Fig6Config(duration_ns=milliseconds(2.5)), sim=sim),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_same_arrivals_at_each_nanosecond(name, monkeypatch):
    one_event, events = _arrival_log(monkeypatch, SCENARIOS[name],
                                     hooked=False)
    two_event, hooked_events = _arrival_log(monkeypatch, SCENARIOS[name],
                                            hooked=True)
    assert len(one_event) > 10_000
    # Equal multisets of (time, port, uid): the same packets reach the
    # same ports at the same nanoseconds, in whatever same-time order.
    assert collections.Counter(one_event) == collections.Counter(two_event)
    assert events < hooked_events


class Sink:
    def __init__(self, sim):
        self.sim = sim
        self.received = []

    def handle_packet(self, packet):
        self.received.append((self.sim.now, packet.uid))


def _two_hosts(sim, hooked):
    net = Network(sim)
    a = net.add_host("a")
    b = net.add_host("b")
    link = net.connect(a, b, gbps(10), microseconds(1))
    net.install_routes()
    if hooked:
        link.port_a.on_transmit = _noop
        link.port_b.on_transmit = _noop
    sink = Sink(sim)
    b.register_protocol("test", sink)
    return a, b, link, sink


class TestOneEventHop:
    def test_idle_hop_is_one_kernel_event(self, sim):
        a, b, _, sink = _two_hosts(sim, hooked=False)
        a.send(Packet(a.address, b.address, 1500, "test"))
        sim.run()
        assert len(sink.received) == 1
        assert sim.events_executed == 1

    def test_hooked_hop_keeps_two_events(self, sim):
        a, b, _, sink = _two_hosts(sim, hooked=True)
        a.send(Packet(a.address, b.address, 1500, "test"))
        sim.run()
        assert len(sink.received) == 1
        assert sim.events_executed == 2


TX = transmission_delay(1500, gbps(10))

#: When the link goes down and comes back, relative to the first of
#: four back-to-back 1500 B packets: mid-serialization of the first
#: packet, exactly at its end, mid-serialization of the second and of
#: the last (each back up before that frame would have ended), and
#: mid-propagation of the last packet once the queue has drained.
CUTS = {
    "mid-serialization": (TX // 2, microseconds(20)),
    "serialization-end": (TX, microseconds(20)),
    "second-packet": (TX + TX // 3, TX + TX // 2),
    "last-packet": (3 * TX + TX // 3, 3 * TX + TX // 2),
    "mid-propagation": (4 * TX + microseconds(1) // 2, microseconds(20)),
}


def _cut_run(cut, hooked):
    reset_id_streams()
    sim = Simulator()
    ledger = sim.ledger = PacketLedger()
    a, b, link, sink = _two_hosts(sim, hooked)
    def send():
        a.send(Packet(a.address, b.address, 1500, "test"))

    for _ in range(4):
        send()
    port = link.port_a
    down, up = cut
    queued = []
    sim.at(down, link.set_down)
    sim.at(up, lambda: queued.append(len(port.queue)))
    sim.at(up, link.set_up)
    sim.at(up, send)
    sim.run()
    assert ledger.finalize(sim).ok
    # A repaired link restarts at once, even when the frame the outage
    # cut would still be serializing: what was queued, and the packet
    # sent at repair, leave back to back.
    assert sink.received[-1][0] == (up + (queued[0] + 1) * TX
                                    + microseconds(1))
    return (port.bytes_transmitted, port.packets_transmitted,
            port.link_down_drops, ledger.dropped, ledger.drop_reasons,
            sink.received)


@pytest.mark.parametrize("name", sorted(CUTS))
def test_outage_accounting_equal_on_both_paths(name):
    one_event = _cut_run(CUTS[name], hooked=False)
    two_event = _cut_run(CUTS[name], hooked=True)
    assert one_event == two_event
    transmitted, packets, drops, dropped, reasons, received = one_event
    # Every packet is either delivered or dropped once, for link_down.
    assert len(received) + dropped == 5
    assert drops == dropped == reasons["a->b:link_down"]
    assert transmitted == 1500 * packets
