"""MPTCP scheduling and LIA arithmetic (pure-logic units)."""

import pytest

from repro.net import DropTailQueue, Network
from repro.sim import gbps, microseconds, milliseconds
from repro.transport import ConnectionCallbacks, MptcpStack


def meta_pair(sim, n_subflows=2):
    net = Network(sim)
    a = net.add_host("a")
    b = net.add_host("b")
    net.connect(a, b, gbps(1), microseconds(5),
                queue_factory=lambda: DropTailQueue(256))
    net.install_routes()
    stack_a, stack_b = MptcpStack(a), MptcpStack(b)
    stack_b.listen(80, lambda meta: ConnectionCallbacks())
    meta = stack_a.connect(b.address, 80, n_subflows=n_subflows)
    sim.run(until=milliseconds(2))  # complete handshakes
    return meta


class TestLiaAlpha:
    def test_symmetric_subflows_alpha_half(self, sim):
        meta = meta_pair(sim, n_subflows=2)
        for subflow in meta.subflows:
            subflow.cwnd = 100 * 1460
            subflow.rtt.srtt = microseconds(100)
        total = sum(subflow.cwnd for subflow in meta.subflows)
        assert meta._lia_alpha(total) == pytest.approx(0.5, rel=0.01)

    def test_single_subflow_alpha_one(self, sim):
        meta = meta_pair(sim, n_subflows=1)
        meta.subflows[0].cwnd = 50 * 1460
        meta.subflows[0].rtt.srtt = microseconds(50)
        assert meta._lia_alpha(meta.subflows[0].cwnd) == pytest.approx(1.0)

    def test_coupled_increase_bounded_by_uncoupled(self, sim):
        meta = meta_pair(sim, n_subflows=2)
        subflow = meta.subflows[0]
        for conn in meta.subflows:
            conn.cwnd = 20 * 1460
            conn.rtt.srtt = microseconds(100)
            conn.ssthresh = conn.cwnd  # force CA
        before = subflow.cwnd
        meta._lia_growth(subflow, 1460)
        coupled_gain = subflow.cwnd - before
        uncoupled_gain = 1460 * 1460 / before
        assert 0 < coupled_gain <= uncoupled_gain + 1


class TestScheduler:
    def test_headroom_zero_for_unestablished(self, sim):
        net = Network(sim)
        a = net.add_host("a")
        b = net.add_host("b")
        net.connect(a, b, gbps(1), microseconds(5))
        net.install_routes()
        stack_b = MptcpStack(b)
        stack_b.listen(80, lambda meta: ConnectionCallbacks())
        meta = MptcpStack(a).connect(b.address, 80, n_subflows=2)
        # Before the handshake completes, nothing has headroom.
        assert all(meta._headroom(subflow) == 0
                   for subflow in meta.subflows)

    def test_backlog_cap_limits_headroom(self, sim):
        meta = meta_pair(sim)
        subflow = meta.subflows[0]
        subflow._app_backlog = 10 ** 9
        assert meta._headroom(subflow) == 0

    def test_chunks_assigned_with_offsets(self, sim):
        meta = meta_pair(sim)
        meta.send(100_000)
        assigned = [entry for queue in meta._mappings.values()
                    for entry in queue]
        offsets = sorted(offset for offset, _ in assigned)
        # Offsets partition the byte range without gaps or overlap.
        expected = 0
        lengths = dict(assigned)
        for offset in offsets:
            assert offset == expected
            expected += lengths[offset]

    def test_meta_backlog_drains(self, sim):
        meta = meta_pair(sim)
        meta.send(200_000)
        sim.run(until=milliseconds(50))
        assert meta._meta_backlog == 0
        assert meta.bytes_sent == 200_000
