"""Property tests: path-selector invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (AlternatingSelector, EcmpSelector,
                       PacketSpraySelector, Packet)


class FakePort:
    def __init__(self, backlog=0):
        self.queue = type("Q", (), {"bytes_queued": backlog})()


def make_ports(n):
    return [FakePort() for _ in range(n)]


flow_labels = st.tuples(st.integers(0, 1000), st.integers(0, 1000),
                        st.integers(0, 65535))


class TestEcmp:
    @given(flow_labels, st.integers(min_value=1, max_value=16),
           st.lists(st.integers(0, 10 ** 9), min_size=1, max_size=20))
    @settings(max_examples=200)
    def test_always_picks_a_candidate_deterministically(self, flow, n_ports,
                                                        times):
        selector = EcmpSelector()
        ports = make_ports(n_ports)
        packet = Packet(1, 2, 100, "t", flow_label=flow)
        choices = {id(selector.select(packet, ports, now)) for now in times}
        assert len(choices) == 1
        assert selector.select(packet, ports, 0) in ports


class TestSpray:
    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=1, max_value=100))
    @settings(max_examples=100)
    def test_round_robin_is_perfectly_balanced(self, n_ports, rounds):
        selector = PacketSpraySelector()
        ports = make_ports(n_ports)
        counts = {id(port): 0 for port in ports}
        for _ in range(rounds * n_ports):
            chosen = selector.select(Packet(1, 2, 100, "t"), ports, 0)
            counts[id(chosen)] += 1
        assert set(counts.values()) == {rounds}


class TestAlternating:
    @given(st.integers(min_value=1, max_value=10 ** 6),
           st.integers(min_value=0, max_value=10 ** 12),
           st.integers(min_value=2, max_value=8))
    @settings(max_examples=200)
    def test_index_constant_within_period(self, period, now, n_ports):
        selector = AlternatingSelector(period_ns=period)
        phase_start = (now // period) * period
        first = selector.active_index(phase_start, n_ports)
        assert selector.active_index(now, n_ports) == first
        assert selector.active_index(phase_start + period - 1,
                                     n_ports) == first

    @given(st.integers(min_value=1, max_value=10 ** 6),
           st.integers(min_value=0, max_value=10 ** 12),
           st.integers(min_value=2, max_value=8))
    @settings(max_examples=200)
    def test_adjacent_periods_differ(self, period, now, n_ports):
        selector = AlternatingSelector(period_ns=period)
        index = selector.active_index(now, n_ports)
        next_index = selector.active_index(now + period, n_ports)
        assert next_index == (index + 1) % n_ports
