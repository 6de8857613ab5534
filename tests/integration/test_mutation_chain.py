"""Mutation chains: compress at one hop, decompress at a later hop.

The canonical data-mutation pipeline of Section 2.2 — a WAN-facing switch
compresses, the far side decompresses — exercised end to end, including
the case where the two offloads disagree about what fits in their budgets.
"""

from repro.core import MtpStack
from repro.net import DropTailQueue, Network
from repro.offloads import MutatingOffload, compressor, decompressor
from repro.sim import Simulator, gbps, mbps, microseconds, milliseconds


def chain(sim, rate_mid=gbps(1)):
    """a -- sw1 ==(slow middle link)== sw2 -- b"""
    net = Network(sim)
    a = net.add_host("a")
    b = net.add_host("b")
    sw1 = net.add_switch("sw1")
    sw2 = net.add_switch("sw2")
    queue = lambda: DropTailQueue(256, 20)
    net.connect(a, sw1, gbps(10), microseconds(2), queue_factory=queue)
    middle = net.connect(sw1, sw2, rate_mid, microseconds(10),
                         queue_factory=queue)
    net.connect(sw2, b, gbps(10), microseconds(2), queue_factory=queue)
    net.install_routes()
    return net, a, b, sw1, sw2, middle


class TestCompressDecompress:
    def test_end_to_end_restores_original(self, sim):
        net, a, b, sw1, sw2, middle = chain(sim)
        sw1.add_processor(MutatingOffload(sim, compressor(0.25),
                                          match_port=500))
        sw2.add_processor(MutatingOffload(sim, decompressor(),
                                          match_port=500))
        inbox = []
        MtpStack(b).endpoint(port=500,
                             on_message=lambda ep, msg: inbox.append(msg))
        payload = {"document": "war-and-peace"}
        MtpStack(a).endpoint().send_message(b.address, 500, 100_000,
                                            payload=payload)
        sim.run(until=milliseconds(100))
        assert len(inbox) == 1
        assert inbox[0].size == 100_000          # restored
        assert inbox[0].payload == payload       # unwrapped

    def test_middle_link_carries_compressed_bytes(self, sim):
        net, a, b, sw1, sw2, middle = chain(sim)
        sw1.add_processor(MutatingOffload(sim, compressor(0.25),
                                          match_port=500))
        sw2.add_processor(MutatingOffload(sim, decompressor(),
                                          match_port=500))
        MtpStack(b).endpoint(port=500)
        MtpStack(a).endpoint().send_message(b.address, 500, 100_000)
        sim.run(until=milliseconds(100))
        mid_bytes = middle.port_a.bytes_transmitted
        # ~25 KB payload + per-packet headers + the cache-ack chatter.
        assert mid_bytes < 50_000

    def test_compression_speeds_up_slow_link(self, sim):
        def transfer_time(use_compression):
            local = Simulator()
            net, a, b, sw1, sw2, middle = chain(local, rate_mid=mbps(100))
            if use_compression:
                sw1.add_processor(MutatingOffload(local, compressor(0.25),
                                                  match_port=500))
                sw2.add_processor(MutatingOffload(local, decompressor(),
                                                  match_port=500))
            done = []
            MtpStack(b).endpoint(
                port=500,
                on_message=lambda ep, msg: done.append(msg.completed_at))
            MtpStack(a).endpoint().send_message(b.address, 500, 200_000)
            local.run(until=milliseconds(500))
            assert done, "transfer did not complete"
            return done[0]

        assert transfer_time(True) < 0.5 * transfer_time(False)

    def test_uncompressed_passthrough_not_unwrapped(self, sim):
        """The decompressor leaves non-compressed payloads alone."""
        net, a, b, sw1, sw2, middle = chain(sim)
        sw2.add_processor(MutatingOffload(sim, decompressor(),
                                          match_port=500))
        inbox = []
        MtpStack(b).endpoint(port=500,
                             on_message=lambda ep, msg: inbox.append(msg))
        MtpStack(a).endpoint().send_message(b.address, 500, 10_000,
                                            payload="plain")
        sim.run(until=milliseconds(50))
        assert inbox[0].payload == "plain"
        assert inbox[0].size == 10_000

    def test_mixed_traffic_only_matching_port_mutated(self, sim):
        net, a, b, sw1, sw2, middle = chain(sim)
        offload = MutatingOffload(sim, compressor(0.5), match_port=500)
        sw1.add_processor(offload)
        sizes = {}
        stack_b = MtpStack(b)
        stack_b.endpoint(port=500,
                         on_message=lambda ep, msg: sizes.__setitem__(
                             500, msg.size))
        stack_b.endpoint(port=501,
                         on_message=lambda ep, msg: sizes.__setitem__(
                             501, msg.size))
        sender = MtpStack(a).endpoint()
        sender.send_message(b.address, 500, 40_000)
        sender.send_message(b.address, 501, 40_000)
        sim.run(until=milliseconds(100))
        assert sizes[500] == 20_000
        assert sizes[501] == 40_000
        assert offload.messages_mutated == 1
