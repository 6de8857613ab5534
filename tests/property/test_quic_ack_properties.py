"""Property tests: QUIC's one-pass ACK handling against the full scan.

``QuicConnection._handle_acks`` walks the in-flight packets once, merging
them with the ACK's ranges, and ``_arm_loss_timer`` reads the oldest
in-flight packet as the first entry.  Both rely on ``_sent`` keys (and
their send times) ascending.  The oracle below is the scan they replace:
every ACK range tests every in-flight packet, and the timer takes the
minimum send time over all of them.
"""

import types

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Network
from repro.sim import Simulator
from repro.transport import ConnectionCallbacks, QuicStack
from repro.transport.base import Runs
from repro.transport.quic import QuicConnection, QuicHeader


def scan_handle_acks(self, header):
    newly_acked_bytes = 0
    newly_acked_pns = []
    for first, end in header.ack_ranges:
        for pn in list(self._sent):
            if first <= pn < end:
                info = self._sent.pop(pn)
                self._pipe -= info["size"]
                newly_acked_bytes += info["size"]
                newly_acked_pns.append(pn)
    if not newly_acked_pns:
        return
    largest = max(newly_acked_pns)
    self._largest_acked = max(self._largest_acked, largest)
    self.rtt.sample(self.sim.now, header.ts_echo)
    self.rtt.backoff = 0
    if self.cwnd < self.ssthresh:
        self.cwnd += newly_acked_bytes
    else:
        self.cwnd += max(1, self.mss * newly_acked_bytes // self.cwnd)
    self._detect_losses()
    self._arm_loss_timer()
    self._try_send()


def scan_arm_loss_timer(self):
    if not self._sent:
        self._loss_timer.stop()
        return
    oldest = min(info["ts"] for info in self._sent.values())
    delay = max(0, oldest + self.rtt.rto - self.sim.now)
    self._loss_timer.restart(delay)


@st.composite
def ack_cases(draw):
    """In-flight packets with ascending send times, an ACK's ranges."""
    pns = sorted(draw(st.sets(st.integers(0, 80), max_size=30)))
    sizes = draw(st.lists(st.integers(1, 1460), min_size=len(pns),
                          max_size=len(pns)))
    gaps = draw(st.lists(st.integers(0, 3_000), min_size=len(pns),
                         max_size=len(pns)))
    runs = Runs()
    for start, length in draw(st.lists(
            st.tuples(st.integers(0, 90), st.integers(1, 12)),
            max_size=10)):
        runs.add(start, start + length)
    ranges = runs.spans[-draw(st.sampled_from([4, 8])):]
    cwnd = draw(st.integers(1_460, 60_000))
    ssthresh = draw(st.integers(2_920, 60_000))
    largest_acked = draw(st.integers(-1, 40))
    return pns, sizes, gaps, ranges, cwnd, ssthresh, largest_acked


def connection(case):
    """An established client connection holding the case's in-flight
    packets, its sent packets collected in a list."""
    pns, sizes, gaps, _, cwnd, ssthresh, largest_acked = case
    sim = Simulator()
    net = Network(sim)
    host = net.add_host("a")
    stack = QuicStack(host)
    sent = []
    stack.send_packet = sent.append
    conn = QuicConnection(stack, 99, 443, ConnectionCallbacks(),
                          connection_id=1, is_client=True)
    conn.established = True
    conn.cwnd = cwnd
    conn.ssthresh = ssthresh
    conn._largest_acked = largest_acked
    now = 0
    for pn, size, gap in zip(pns, sizes, gaps):
        now += gap
        conn._sent[pn] = {"frames": [(1, pn * 1460, size, False)],
                          "size": size, "ts": now}
        conn._pipe += size
    conn._next_packet_number = (pns[-1] + 1) if pns else 0
    sim.run(until=now + 1_000)
    return conn, sent


def state(conn, sent):
    timer = conn._loss_timer
    return (list(conn._sent), conn._pipe, conn.packets_lost, conn.cwnd,
            conn.ssthresh, conn._largest_acked, conn.rtt.srtt,
            timer.running, timer.running and timer._deadline,
            {stream: list(queue)
             for stream, queue in conn._send_queues.items()},
            [(packet.header.packet_number, packet.header.stream_frames)
             for packet in sent])


@given(ack_cases())
@settings(max_examples=400, deadline=None)
def test_one_pass_matches_scan(case):
    ranges = case[3]
    conn, sent = connection(case)
    oracle, oracle_sent = connection(case)
    oracle._handle_acks = types.MethodType(scan_handle_acks, oracle)
    oracle._arm_loss_timer = types.MethodType(scan_arm_loss_timer, oracle)
    acked = [pn for pn in conn._sent
             if any(first <= pn < end for first, end in ranges)]
    for side in (conn, oracle):
        header = QuicHeader(1, 500, ts=side.sim.now,
                            ts_echo=side.sim.now - 700)
        header.ack_ranges = list(ranges)
        side._handle_acks(header)
    assert state(conn, sent) == state(oracle, oracle_sent)
    assert not set(acked) & set(conn._sent)
