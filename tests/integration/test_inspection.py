"""IDS-style inspection offload: flagging, dropping, bounded state."""

from repro.core import MtpStack
from repro.net import DropTailQueue, Network
from repro.offloads import InspectionOffload
from repro.sim import gbps, microseconds, milliseconds


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


def is_malicious(payload):
    return isinstance(payload, dict) and payload.get("evil", False)


class TestInspection:
    def test_clean_traffic_passes(self, sim):
        net, a, b, sw = switched_pair(sim)
        ids = InspectionOffload(is_malicious)
        sw.add_processor(ids)
        inbox = []
        MtpStack(b).endpoint(port=100,
                             on_message=lambda ep, msg: inbox.append(msg))
        MtpStack(a).endpoint().send_message(b.address, 100, 5000,
                                            payload={"evil": False})
        sim.run(until=milliseconds(10))
        assert len(inbox) == 1
        assert ids.messages_flagged == 0

    def test_flagged_message_dropped(self, sim):
        net, a, b, sw = switched_pair(sim)
        ids = InspectionOffload(is_malicious)
        sw.add_processor(ids)
        inbox = []
        MtpStack(b).endpoint(port=100,
                             on_message=lambda ep, msg: inbox.append(msg))
        sender = MtpStack(a).endpoint()
        sender.send_message(b.address, 100, 2000, payload={"evil": True})
        sender.send_message(b.address, 100, 2000, payload={"evil": False})
        sim.run(until=milliseconds(5))
        assert len(inbox) == 1
        assert inbox[0].payload == {"evil": False}
        assert ids.messages_flagged == 1
        assert ids.packets_dropped >= 1

    def test_multi_packet_message_single_inspection(self, sim):
        net, a, b, sw = switched_pair(sim)
        calls = [0]

        def counting_flag(payload):
            calls[0] += 1
            return False

        ids = InspectionOffload(counting_flag)
        sw.add_processor(ids)
        inbox = []
        MtpStack(b).endpoint(port=100,
                             on_message=lambda ep, msg: inbox.append(msg))
        MtpStack(a).endpoint().send_message(b.address, 100, 100_000)
        sim.run(until=milliseconds(10))
        assert len(inbox) == 1
        assert calls[0] == 1  # one verdict per message, not per packet
        assert ids.open_verdicts == 0  # state released at last packet

    def test_port_scoping(self, sim):
        net, a, b, sw = switched_pair(sim)
        ids = InspectionOffload(is_malicious, match_port=100)
        sw.add_processor(ids)
        inbox = []
        stack_b = MtpStack(b)
        stack_b.endpoint(port=100,
                         on_message=lambda ep, msg: inbox.append(100))
        stack_b.endpoint(port=101,
                         on_message=lambda ep, msg: inbox.append(101))
        sender = MtpStack(a).endpoint()
        sender.send_message(b.address, 100, 1000, payload={"evil": True})
        sender.send_message(b.address, 101, 1000, payload={"evil": True})
        sim.run(until=milliseconds(10))
        assert inbox == [101]  # unscoped port not inspected

    def test_flagged_elephant_fully_suppressed(self, sim):
        net, a, b, sw = switched_pair(sim)
        ids = InspectionOffload(is_malicious)
        sw.add_processor(ids)
        inbox = []
        MtpStack(b).endpoint(port=100,
                             on_message=lambda ep, msg: inbox.append(msg))
        sender = MtpStack(a).endpoint()
        sender.send_message(b.address, 100, 200_000,
                            payload={"evil": True})
        sim.run(until=milliseconds(20))
        assert inbox == []
        assert sw.port_to(b).packets_transmitted == 0  # nothing leaked
