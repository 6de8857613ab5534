"""End-to-end path exclusion: end-hosts steer the network away from
congested pathlets (Section 3.1.3 "end-hosts provide feedback to the
network about the pathlets that should not be used")."""

from repro.core import (EcnFeedbackSource, MtpStack, PathletRegistry)
from repro.net import DropTailQueue, EcmpSelector, Network
from repro.sim import gbps, mbps, microseconds, milliseconds


class ExclusionTap:
    """Counts packets reaching ``sw2`` with an exclude list, by ingress.

    Every packet sw1 forwards with a non-empty exclude list is one whose
    candidate ports sw1 filtered, so the count on a link is the traffic
    that link carried under an exclusion.
    """

    def __init__(self):
        self.by_ingress = {}

    def process(self, packet, switch, ingress):
        if getattr(packet.header, "path_exclude", None):
            self.by_ingress[ingress] = self.by_ingress.get(ingress, 0) + 1
        return None


def two_path_network(sim):
    """sender -> sw1 ==(pathA 10G | pathB 100M)== sw2 -> receiver."""
    net = Network(sim)
    sender = net.add_host("sender")
    receiver = net.add_host("receiver")
    sw1 = net.add_switch("sw1", selector=EcmpSelector())
    sw2 = net.add_switch("sw2")
    queue = lambda: DropTailQueue(64, 8)
    net.connect(sender, sw1, gbps(10), microseconds(1))
    good = net.connect(sw1, sw2, gbps(10), microseconds(1),
                       queue_factory=queue)
    bad = net.connect(sw1, sw2, mbps(100), microseconds(1),
                      queue_factory=queue)
    net.connect(sw2, receiver, gbps(10), microseconds(1))
    net.install_routes()
    registry = PathletRegistry(sim)
    good_id = registry.register(good.port_a, EcnFeedbackSource(8))
    bad_id = registry.register(bad.port_a, EcnFeedbackSource(2))
    sw1.pathlet_lookup = registry.pathlet_of
    return net, sender, receiver, sw1, good, bad, good_id, bad_id


class TestSwitchHonoursExclusions:
    def test_excluded_port_avoided(self, sim):
        net, sender, receiver, sw1, good, bad, good_id, bad_id = \
            two_path_network(sim)
        stack_r = MtpStack(receiver)
        stack_r.endpoint(port=100)
        stack_s = MtpStack(sender)
        endpoint = stack_s.endpoint()
        endpoint.advertise_exclusions = True
        # Pre-teach the CC that the bad pathlet is congested, and pin it:
        # this test is about the *switch honouring* exclusions, so the
        # end-host must not lift the exclusion by re-probing mid-test.
        controller = stack_s.cc.controller(bad_id, "default")
        controller.cwnd = controller.min_window
        controller._react = lambda *args, **kwargs: None
        assert bad_id in stack_s.cc.congested_pathlets("default")
        before = bad.port_a.packets_transmitted
        tap = ExclusionTap()
        net.switch("sw2").add_processor(tap)

        def paced_send(remaining=[50]):
            if remaining[0] == 0:
                return
            remaining[0] -= 1
            endpoint.send_message(receiver.address, 100, 1000)
            sim.schedule(microseconds(10), paced_send)

        paced_send()
        sim.run(until=milliseconds(20))
        # sw1 filtered its candidates for packets that then took the good
        # link.
        assert tap.by_ingress.get(good.port_b, 0) > 0
        # Exclusion is advisory and the end-host re-probes (a clean sample
        # on the bad pathlet grows its window and lifts the exclusion), so
        # a trickle is expected — but the traffic must be strongly biased
        # away from the excluded path, unlike ECMP's even split.
        bad_used = bad.port_a.packets_transmitted - before
        good_used = good.port_a.packets_transmitted
        assert bad_used < 0.4 * good_used

    def test_all_excluded_falls_back(self, sim):
        net, sender, receiver, sw1, good, bad, good_id, bad_id = \
            two_path_network(sim)
        MtpStack(receiver).endpoint(port=100)
        stack_s = MtpStack(sender)
        endpoint = stack_s.endpoint()
        endpoint.advertise_exclusions = True
        for pathlet_id in (good_id, bad_id):
            controller = stack_s.cc.controller(pathlet_id, "default")
            controller.cwnd = controller.min_window
        endpoint.send_message(receiver.address, 100, 1000)
        sim.run(until=milliseconds(20))
        # Both excluded: the network must still deliver.
        assert endpoint.messages_completed == 1

    def test_without_advertising_no_exclusions(self, sim):
        net, sender, receiver, sw1, good, bad, good_id, bad_id = \
            two_path_network(sim)
        MtpStack(receiver).endpoint(port=100)
        stack_s = MtpStack(sender)
        endpoint = stack_s.endpoint()  # advertise_exclusions defaults False
        controller = stack_s.cc.controller(bad_id, "default")
        controller.cwnd = controller.min_window
        tap = ExclusionTap()
        net.switch("sw2").add_processor(tap)

        def paced_send(remaining=[20]):
            if remaining[0] == 0:
                return
            remaining[0] -= 1
            endpoint.send_message(receiver.address, 100, 1000)
            sim.schedule(microseconds(10), paced_send)

        paced_send()
        sim.run(until=milliseconds(20))
        assert tap.by_ingress == {}


class TestLearnedExclusion:
    def test_congestion_learned_then_avoided(self, sim):
        """The sender discovers the slow path by itself, then avoids it."""
        net, sender, receiver, sw1, good, bad, good_id, bad_id = \
            two_path_network(sim)
        MtpStack(receiver).endpoint(port=100)
        stack_s = MtpStack(sender)
        endpoint = stack_s.endpoint()
        endpoint.advertise_exclusions = True
        # Phase 1: flood. ECMP spreads messages over both paths; the bad
        # path's controller collapses (marks + losses).
        for _ in range(100):
            endpoint.send_message(receiver.address, 100, 20_000)
        sim.run(until=milliseconds(60))
        learned = stack_s.cc.congested_pathlets("default")
        assert bad_id in learned
        assert good_id not in learned
        # Phase 2: new paced traffic declares the exclusion and avoids the
        # slow path (good path is uncongested by now, so only the bad
        # pathlet is advertised).
        transmitted_before = bad.port_a.packets_transmitted

        def paced_send(remaining=[50]):
            if remaining[0] == 0:
                return
            remaining[0] -= 1
            endpoint.send_message(receiver.address, 100, 1000)
            sim.schedule(microseconds(10), paced_send)

        paced_send()
        sim.run(until=milliseconds(100))
        assert (bad.port_a.packets_transmitted - transmitted_before) <= 2
