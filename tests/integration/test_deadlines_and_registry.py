"""Message deadlines/abort and the pluggable CC-algorithm registry."""

import pytest

from repro.core import (FB_QUEUE, FEEDBACK_ALGORITHMS, MtpStack,
                        PathletRegistry, QueueFeedbackSource,
                        WindowEcnController, register_feedback_algorithm)
from repro.net import BlackoutProcessor, DropTailQueue, Network
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
    return net, a, b, sw


class TestDeadlines:
    def test_healthy_message_unaffected(self, sim):
        net, a, b, sw = switched_pair(sim)
        done, failed = [], []
        MtpStack(b).endpoint(port=100)
        MtpStack(a).endpoint().send_message(
            b.address, 100, 10_000, deadline_ns=milliseconds(50),
            on_complete=done.append, on_failed=failed.append)
        sim.run(until=milliseconds(100))
        assert len(done) == 1
        assert failed == []

    def test_blackout_triggers_deadline(self, sim):
        net, a, b, sw = switched_pair(sim)
        sw.add_processor(BlackoutProcessor(
            sim, [(0, milliseconds(50))]))  # nothing gets through
        done, failed = [], []
        MtpStack(b).endpoint(port=100)
        sender = MtpStack(a).endpoint()
        sender.send_message(b.address, 100, 10_000,
                            deadline_ns=milliseconds(5),
                            on_complete=done.append,
                            on_failed=failed.append)
        sim.run(until=milliseconds(20))
        assert done == []
        assert len(failed) == 1
        assert failed[0].failed
        assert sender.messages_failed == 1
        assert sender.outstanding_messages == 0

    def test_abort_releases_window(self, sim):
        net, a, b, sw = switched_pair(sim)
        sw.add_processor(BlackoutProcessor(sim, [(0, milliseconds(200))]))
        MtpStack(b).endpoint(port=100)
        stack_a = MtpStack(a)
        sender = stack_a.endpoint()
        state = sender.send_message(b.address, 100, 10_000)
        sim.run(until=milliseconds(1))
        from repro.core import UNKNOWN_PATHLET
        assert stack_a.cc.inflight(UNKNOWN_PATHLET, "default") > 0
        assert sender.abort_message(state.message.msg_id)
        assert stack_a.cc.inflight(UNKNOWN_PATHLET, "default") == 0

    def test_abort_unknown_message(self, sim):
        net, a, b, sw = switched_pair(sim)
        sender = MtpStack(a).endpoint()
        assert not sender.abort_message(424242)

    def test_invalid_deadline(self, sim):
        net, a, b, sw = switched_pair(sim)
        sender = MtpStack(a).endpoint()
        with pytest.raises(ValueError):
            sender.send_message(b.address, 100, 100, deadline_ns=0)

    def test_rejected_deadline_queues_nothing(self, sim):
        """A call that raises must not leave a message behind to send."""
        net, a, b, sw = switched_pair(sim)
        MtpStack(b).endpoint(port=100)
        sender = MtpStack(a).endpoint()
        with pytest.raises(ValueError):
            sender.send_message(b.address, 100, 10_000, deadline_ns=-1)
        assert sender.outstanding_messages == 0
        assert sender.messages_sent == 0
        # A later message's send round must not pick up a leftover.
        sender.send_message(b.address, 100, 100)
        sim.run(until=milliseconds(5))
        assert sender.data_packets_sent == 1
        assert a.port_to(sw).packets_transmitted == 1

    def test_late_acks_for_aborted_message_ignored(self, sim):
        """ACKs arriving after an abort must not crash or double-count."""
        net, a, b, sw = switched_pair(sim)
        MtpStack(b).endpoint(port=100)
        sender = MtpStack(a).endpoint()
        state = sender.send_message(b.address, 100, 50_000)
        # Abort while packets (and their future ACKs) are in flight.
        sim.run(until=microseconds(5))
        sender.abort_message(state.message.msg_id)
        sim.run(until=milliseconds(20))
        assert sender.messages_completed == 0


class TestAlgorithmRegistry:
    def test_custom_algorithm_selected_by_feedback_type(self, sim):
        class QueueHalver(WindowEcnController):
            """Toy algorithm keyed to FB_QUEUE telemetry."""

            def _react(self, feedback, acked_bytes, now):
                if feedback is not None and feedback.type == FB_QUEUE:
                    if feedback.value > 30:
                        self.cwnd = max(self.min_window, self.cwnd // 2)
                    else:
                        self.cwnd += acked_bytes

        original = FEEDBACK_ALGORITHMS.get(FB_QUEUE)
        register_feedback_algorithm(FB_QUEUE, QueueHalver)
        try:
            net, a, b, sw = switched_pair(sim, rate=mbps(500))
            registry = PathletRegistry(sim)
            path_id = registry.register(a.port_to(sw),
                                        QueueFeedbackSource())
            stack_a = MtpStack(a)
            MtpStack(b).endpoint(port=100)
            sender = stack_a.endpoint()
            for _ in range(10):
                sender.send_message(b.address, 100, 50_000)
            sim.run(until=milliseconds(50))
            controller = stack_a.cc.controller(path_id, "default")
            assert isinstance(controller, QueueHalver)
            assert sender.messages_completed == 10
        finally:
            if original is not None:
                register_feedback_algorithm(FB_QUEUE, original)
            else:
                FEEDBACK_ALGORITHMS.pop(FB_QUEUE, None)
