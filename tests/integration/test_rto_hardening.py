"""RTO backoff, retry exhaustion, and clean aborts for TCP and MTP.

The hardening contract: timeouts back off exponentially up to a cap,
any acknowledgement progress resets the backoff, and when the retry
budget is exhausted the transport aborts *cleanly* — the app-visible
error fires exactly once, the retransmission timer is fully disarmed,
and no ghost events linger in the scheduler.
"""

from repro.analysis import PacketLedger, SanitizingSimulator
from repro.core import MtpStack
from repro.net import Network
from repro.sim import gbps, microseconds, milliseconds
from repro.transport import ConnectionCallbacks, TcpStack


def linked_pair(sim, rate=gbps(10), delay=microseconds(2)):
    net = Network(sim)
    a = net.add_host("a")
    b = net.add_host("b")
    link = net.connect(a, b, rate, delay)
    net.install_routes()
    return net, a, b, link


class TestTcpRtoHardening:
    def test_abort_fires_error_exactly_once(self, sim):
        net, a, b, link = linked_pair(sim)
        errors, closes = [], []
        TcpStack(b).listen(80, lambda conn: ConnectionCallbacks())
        conn = TcpStack(a).connect(
            b.address, 80,
            ConnectionCallbacks(
                on_connected=lambda c: c.send(500_000),
                on_error=lambda c, reason: errors.append(reason),
                on_close=lambda c: closes.append(c)),
            max_retries=3, max_rto_ns=milliseconds(1))
        # Cut the link mid-transfer and never repair it.
        sim.at(microseconds(100), link.set_down)
        sim.run(until=milliseconds(100))
        assert errors == ["max_retries_exceeded"]
        assert closes == [conn]
        assert conn.closed
        assert conn.error == "max_retries_exceeded"
        assert conn.retransmissions > 0

    def test_timer_disarmed_after_abort_no_ghost_events(self):
        # Under the sanitizer: the abort must leave no pending timer and
        # every packet lost to the dead link must be ledger-accounted.
        sim = SanitizingSimulator(ledger=PacketLedger())
        net, a, b, link = linked_pair(sim)
        TcpStack(b).listen(80, lambda conn: ConnectionCallbacks())
        conn = TcpStack(a).connect(
            b.address, 80,
            ConnectionCallbacks(on_connected=lambda c: c.send(200_000)),
            max_retries=2, max_rto_ns=milliseconds(1))
        sim.at(microseconds(100), link.set_down)
        sim.run()  # no `until`: drain everything the transports scheduled
        assert conn.closed
        assert not conn._rto_timer.running
        assert sim.pending_events() == 0
        report = sim.ledger.finalize(sim)
        assert report.ok, report.summary()
        assert any(key.endswith(":link_down")
                   for key in report.drop_reasons)

    def test_backoff_resets_on_progress(self, sim):
        net, a, b, link = linked_pair(sim)
        received = [0]
        TcpStack(b).listen(80, lambda conn: ConnectionCallbacks(
            on_data=lambda c, n: received.__setitem__(0, received[0] + n)))
        conn = TcpStack(a).connect(
            b.address, 80,
            ConnectionCallbacks(on_connected=lambda c: c.send(300_000)),
            max_retries=20, max_rto_ns=milliseconds(2))
        # A bounded outage: several barren RTOs, then the link heals.
        sim.at(microseconds(100), link.set_down)
        sim.at(milliseconds(5), link.set_up)
        sim.run(until=milliseconds(100))
        assert received[0] == 300_000
        assert conn.timeouts > 0  # the outage did cost RTOs
        # ...but forward progress reset the retry budget and the backoff.
        assert conn._consecutive_timeouts == 0
        assert not conn.closed

    def test_rto_capped_during_outage(self, sim):
        net, a, b, link = linked_pair(sim)
        cap = milliseconds(1)
        TcpStack(b).listen(80, lambda conn: ConnectionCallbacks())
        conn = TcpStack(a).connect(
            b.address, 80,
            ConnectionCallbacks(on_connected=lambda c: c.send(500_000)),
            max_retries=50, max_rto_ns=cap)
        sim.at(microseconds(50), link.set_down)
        sim.run(until=milliseconds(60))
        assert conn.timeouts >= 10
        assert conn.rtt.rto <= cap

    def test_syn_retries_exhaust_cleanly(self, sim):
        net, a, b, link = linked_pair(sim)
        errors = []
        TcpStack(b)  # no listener: the SYN could never succeed anyway
        link.set_down()
        conn = TcpStack(a).connect(
            b.address, 80,
            ConnectionCallbacks(
                on_error=lambda c, reason: errors.append(reason)),
            max_rto_ns=milliseconds(1))
        sim.run(until=milliseconds(200))
        assert errors == ["syn_retries_exceeded"]
        assert conn.closed
        assert not conn._rto_timer.running


class TestMtpRtoHardening:
    def test_max_retries_abort_fires_once(self, sim):
        net, a, b, link = linked_pair(sim)
        MtpStack(b).endpoint(port=100)
        stack = MtpStack(a, max_retries=3, max_rto_ns=milliseconds(1))
        endpoint = stack.endpoint()
        failures = []
        state = endpoint.send_message(b.address, 100, 200_000,
                                      on_failed=failures.append)
        sim.at(microseconds(10), link.set_down)
        sim.run(until=milliseconds(200))
        assert failures == [state]
        assert state.failed
        assert state.fail_reason == "max_retries"
        assert endpoint.messages_failed == 1
        # A second abort finds nothing to fail.
        assert endpoint.abort_message(state.message.msg_id) is False
        assert failures == [state]

    def test_timer_disarmed_after_abort_no_ghost_events(self):
        sim = SanitizingSimulator(ledger=PacketLedger())
        net, a, b, link = linked_pair(sim)
        MtpStack(b).endpoint(port=100)
        stack = MtpStack(a, max_retries=2, max_rto_ns=milliseconds(1))
        endpoint = stack.endpoint()
        endpoint.send_message(b.address, 100, 200_000)
        sim.at(microseconds(10), link.set_down)
        sim.run()  # drain: the abort must not keep the RTO timer alive
        assert endpoint.messages_failed == 1
        assert not endpoint._rto_timer.running
        assert endpoint._retx_queue == []
        assert sim.pending_events() == 0
        report = sim.ledger.finalize(sim)
        assert report.ok, report.summary()

    def test_backoff_resets_on_ack_progress(self, sim):
        net, a, b, link = linked_pair(sim)
        inbox = []
        MtpStack(b).endpoint(port=100,
                             on_message=lambda ep, msg: inbox.append(msg))
        stack = MtpStack(a, max_retries=40, max_rto_ns=milliseconds(2))
        endpoint = stack.endpoint()
        endpoint.send_message(b.address, 100, 100_000)
        observed = []
        sim.at(microseconds(50), link.set_down)
        # Sample the backoff step just before the repair.
        sim.at(milliseconds(5) - 1,
               lambda: observed.append(endpoint.rtt.backoff))
        sim.at(milliseconds(5), link.set_up)
        sim.run(until=milliseconds(100))
        assert len(inbox) == 1
        assert observed and observed[0] > 0  # the outage backed off
        assert endpoint.rtt.backoff == 0    # ACK progress reset it
        assert endpoint.retransmissions > 0

    def test_rto_capped_during_outage(self, sim):
        net, a, b, link = linked_pair(sim)
        cap = milliseconds(1)
        MtpStack(b).endpoint(port=100)
        stack = MtpStack(a, max_retries=100, max_rto_ns=cap)
        endpoint = stack.endpoint()
        endpoint.send_message(b.address, 100, 200_000)
        sim.at(microseconds(10), link.set_down)
        sim.run(until=milliseconds(50))
        assert endpoint.rtt.backoff > 0
        assert endpoint.rtt.rto <= cap

    def test_deadline_abort_reports_deadline(self, sim):
        net, a, b, link = linked_pair(sim)
        MtpStack(b).endpoint(port=100)
        endpoint = MtpStack(a).endpoint()
        failures = []
        link.set_down()
        state = endpoint.send_message(b.address, 100, 50_000,
                                      deadline_ns=milliseconds(1),
                                      on_failed=failures.append)
        sim.run(until=milliseconds(10))
        assert failures == [state]
        assert state.fail_reason == "deadline"

    def test_completed_message_cannot_fail(self, sim):
        net, a, b, link = linked_pair(sim)
        inbox = []
        MtpStack(b).endpoint(port=100,
                             on_message=lambda ep, msg: inbox.append(msg))
        endpoint = MtpStack(a).endpoint()
        failures = []
        state = endpoint.send_message(b.address, 100, 10_000,
                                      on_failed=failures.append)
        sim.run(until=milliseconds(10))
        assert len(inbox) == 1
        assert endpoint.abort_message(state.message.msg_id) is False
        assert failures == []
