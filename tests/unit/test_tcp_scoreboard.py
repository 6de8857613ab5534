"""The TCP sender's SACK scoreboard keeps its send decisions.

Three checks:

* pinned digests of every TCP transmission in the Figure 5 and 6 TCP
  systems, taken with the original full-scan scoreboard;
* a differential test against :func:`full_scan_process_sack_blocks`, the
  original scoreboard update, on random segment tables and SACK blocks;
* the same comparison over random sequences of ACKs, retransmissions,
  time steps, RTT changes and timeouts, so the state the scoreboard
  carries from one ACK to the next is checked too.
"""

import functools
import hashlib
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments import Fig5Config, Fig6Config, run_fig5, run_fig6
from repro.net import Network
from repro.sim import Simulator, milliseconds
from repro.transport import ConnectionCallbacks, TcpStack
from repro.transport.tcp import FLAG_ACK, TcpConnection, TcpHeader

# -- pinned send-log digests -------------------------------------------


def fig6(system, seed, duration_ms, **options):
    return lambda sim: run_fig6(system, Fig6Config(
        duration_ns=milliseconds(duration_ms), seed=seed, **options),
        sim=sim)


#: name -> (driver, transmissions, retransmissions, events executed,
#: SHA-256 of the send log).  The send log is the repr of the list of
#: ``(now, local_port, remote_address, seq, ack, flags, bytes,
#: sack_blocks)`` of every TCP transmission.  ECMP runs with a 32-packet
#: buffer: at the default 128 its flows never lose a packet this early.
PINNED = {
    "fig5_dctcp": (
        lambda sim: run_fig5("dctcp", Fig5Config(
            duration_ns=milliseconds(2)), sim=sim),
        13704, 2051, 42527,
        "31e57feb63589e02cb3e6c34f7c98a1c21dd5b4ba497f7aad500fafcb202b3fd"),
    "fig5_mptcp": (
        lambda sim: run_fig5("mptcp", Fig5Config(
            duration_ns=milliseconds(1.5)), sim=sim),
        10084, 149, 31661,
        "adba997d996f038c45f9bde9435c92ecc54d018a538ea2347e8fc0d5a3a2121b"),
    "fig6_ecmp_seed1": (
        fig6("ecmp", 1, 2, buffer_packets=32), 18286, 1002, 71455,
        "b9e9f59e7e92f01e3802efcaed2e3877a0dd161737f2e465d645a7e4c02688fa"),
    "fig6_ecmp_seed2": (
        fig6("ecmp", 2, 2, buffer_packets=32), 20597, 1468, 79599,
        "46ed9cdf4e8fb278fd3b012501c7dd9c59099271bde9ec4a9370e07657ccec24"),
    "fig6_spray_seed1": (
        fig6("spray", 1, 1.5), 16419, 3586, 70379,
        "dccbdf94bedd3b8b4ac06e5058a56c78ede96fb9ee1b786ea7a74d24b7dc553d"),
    "fig6_spray_seed2": (
        fig6("spray", 2, 1.5), 15202, 3323, 60760,
        "8c587f08a19fa11fa3198fd61dde9fe03393e0c78c41bfb25e127eeeabe0d18c"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_send_log_digest_pinned(name, monkeypatch):
    driver, sends, retransmissions, events, digest = PINNED[name]
    log = []
    transmit = TcpConnection._transmit
    retransmit = TcpConnection._retransmit_segment
    retransmitted = []

    def logged_transmit(self, header, data_bytes):
        log.append((self.sim.now, self.local_port, self.remote_address,
                    header.seq, header.ack, header.flags, data_bytes,
                    tuple(header.sack_blocks)))
        transmit(self, header, data_bytes)

    def counted_retransmit(self, seq, entry):
        retransmitted.append(seq)
        retransmit(self, seq, entry)

    monkeypatch.setattr(TcpConnection, "_transmit", logged_transmit)
    monkeypatch.setattr(TcpConnection, "_retransmit_segment",
                        counted_retransmit)
    sim = Simulator()
    driver(sim)
    assert len(retransmitted) > 0, "the run never entered SACK recovery"
    assert (len(log), len(retransmitted), sim.events_executed) == (
        sends, retransmissions, events)
    assert hashlib.sha256(repr(log).encode()).hexdigest() == digest


# -- differential test against the full-scan scoreboard ----------------


def full_scan_process_sack_blocks(conn, blocks):
    """The original scoreboard update: every block against every segment,
    then a loss-inference pass over the whole table."""
    if not blocks:
        return
    for start, end in blocks:
        conn._highest_sacked = max(conn._highest_sacked, end)
    for seq, entry in conn._segments.items():
        if entry[4]:
            continue
        size = entry[0]
        for start, end in blocks:
            if start <= seq and seq + size <= end:
                entry[4] = True
                if not entry[3]:
                    conn._pipe -= size
                else:
                    entry[3] = False
                break
    threshold = conn._highest_sacked - 3 * conn.mss
    srtt = conn.rtt.srtt
    retx_grace = srtt if srtt is not None else conn.rtt.min_ns
    newly_lost = [seq for seq, entry in conn._segments.items()
                  if not entry[3] and not entry[4]
                  and seq + entry[0] <= threshold
                  and (not entry[1]
                       or conn.sim.now - entry[2] > retx_grace)]
    for seq in sorted(newly_lost):
        conn._mark_lost(seq)
    if newly_lost and not conn._in_recovery:
        conn._in_recovery = True
        conn._recover = conn.snd_nxt
        conn.ssthresh = max(conn.flight_size // 2, 2 * conn.mss)
        conn.cwnd = conn.ssthresh + 3 * conn.mss


#: Virtual time of every differential case.  Send times and smoothed
#: RTTs are drawn so ``now - send_ts`` often lands on the retransmission
#: grace (``srtt``, or the 200 us minimum RTO without one).
NOW = 300_000
SEND_TIMES = st.sampled_from((0, NOW - 200_000, NOW - 10_000, NOW)) \
    | st.integers(0, NOW)


@st.composite
def scoreboards(draw):
    """A sender's segment table in mid-recovery, plus SACK blocks.

    Segments are ascending and disjoint (mostly contiguous, sometimes
    with a gap), optionally closed by a 1-byte FIN.  Blocks may cut
    segments, lie below ``snd_una`` or above ``snd_nxt``, overlap each
    other and come in any order.
    """
    seq = draw(st.integers(1, 3000))
    snd_una = seq
    segments = {}
    for _ in range(draw(st.integers(0, 30))):
        seq += draw(st.sampled_from((0, 0, 0, 1, 700)))
        size = draw(st.just(1460) | st.integers(1, 1460))
        sacked = draw(st.booleans())
        segments[seq] = [size, draw(st.booleans()), draw(SEND_TIMES),
                         not sacked and draw(st.booleans()), sacked]
        seq += size
    if draw(st.booleans()):
        segments[seq] = [1, draw(st.booleans()), draw(SEND_TIMES),
                         False, False]
        seq += 1
    snd_nxt = seq
    edges = sorted(set(segments)
                   | {s + e[0] for s, e in segments.items()}
                   | {snd_una, snd_nxt})
    point = st.one_of(
        st.builds(lambda edge, shift: edge + shift,
                  st.sampled_from(edges), st.sampled_from((-1, 0, 0, 1))),
        st.integers(snd_una - 3000, snd_nxt + 3000))
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        start, end = sorted((draw(point), draw(point)))
        blocks.append((start, max(end, start + 1)))
    state = {
        "snd_una": snd_una, "snd_nxt": snd_nxt,
        "_highest_sacked": draw(st.sampled_from(edges)
                                | st.integers(snd_una, snd_nxt)),
        "srtt": draw(st.none() | st.just(10_000) | st.integers(1, NOW)),
        "_in_recovery": draw(st.booleans()),
        "_recover": draw(st.integers(snd_una, snd_nxt)),
        "ssthresh": draw(st.integers(2920, 200_000)),
        "cwnd": draw(st.integers(1460, 200_000)),
    }
    return segments, blocks, state


def loaded_connection(segments, state):
    sim = Simulator()
    conn = TcpConnection(TcpStack(Network(sim).add_host("a")), 10_001, 2,
                         80, ConnectionCallbacks())
    sim.run(until=NOW)
    for name, value in state.items():
        setattr(conn.rtt if name == "srtt" else conn, name, value)
    conn._segments = {seq: list(entry) for seq, entry in segments.items()}
    conn._seg_order = sorted(segments)
    conn._lost = deque(seq for seq, entry in segments.items() if entry[3])
    conn._pipe = sum(entry[0] for entry in segments.values()
                     if not entry[3] and not entry[4])
    return conn


def scoreboard(conn):
    return (conn._segments, conn._pipe, list(conn._lost),
            conn._highest_sacked, conn._in_recovery, conn._recover,
            conn.ssthresh, conn.cwnd)


#: Five full segments from seq 1000, none lost, SACKed or retransmitted.
FIVE_SEGMENTS = {1000 + 1460 * i: [1460, False, 0, False, False]
                 for i in range(5)}
FRESH = {"snd_una": 1000, "snd_nxt": 8300, "_highest_sacked": 1000,
         "srtt": None, "_in_recovery": False, "_recover": 1000,
         "ssthresh": 100_000, "cwnd": 100_000}


@settings(max_examples=200, deadline=None)
@given(scoreboards())
# SACKing the last segment puts the loss threshold exactly on the end of
# the second one, which is then presumed lost.
@example((FIVE_SEGMENTS, [(6840, 8300)], FRESH))
# Blocks that start on a segment, end inside one, and overlap.
@example((FIVE_SEGMENTS, [(3920, 6000), (2460, 5380)], FRESH))
def test_scoreboard_matches_full_scan_model(case):
    segments, blocks, state = case
    conn = loaded_connection(segments, state)
    model = loaded_connection(segments, state)
    conn._process_sack_blocks(blocks)
    full_scan_process_sack_blocks(model, blocks)
    assert scoreboard(conn) == scoreboard(model)
    assert conn._seg_order == sorted(conn._segments)


# -- differential test over sequences of sender events -----------------

#: The peer's advertised window in the sequence test: never the limit.
PEER_WND = 1 << 30


def twin_connections(segments, state):
    """Two senders loaded with the same table: the first keeps the
    incremental scoreboard, the second runs the full scan on every SACK.
    Returns them with the send logs of each."""
    twins = []
    for full_scan in (False, True):
        conn = loaded_connection(segments, state)
        conn.state = "established"
        conn.peer_ack = conn.snd_una
        conn.peer_wnd = PEER_WND
        conn.max_retries = 1 << 30
        log = []
        conn.stack.send_packet = lambda packet, log=log: log.append(
            (packet.header.seq, packet.header.payload_len,
             packet.header.flags))
        if full_scan:
            conn._process_sack_blocks = functools.partial(
                full_scan_process_sack_blocks, conn)
        twins.append((conn, log))
    return twins


def ack_header(ack, blocks):
    header = TcpHeader(80, 10_001, 1, ack, FLAG_ACK, PEER_WND)
    header.sack_blocks = blocks
    return header


@st.composite
def event_sequences(draw):
    """A loaded table (as :func:`scoreboards` draws it) and up to 25
    sender events, each a ``(kind, argument)`` pair.

    Blocks and ACKs are drawn on the table's segment edges, on the edges
    of full segments of new data above it, and anywhere in between.
    """
    segments, _blocks, state = draw(scoreboards())
    snd_nxt = state["snd_nxt"]
    edges = sorted(set(segments) | {s + e[0] for s, e in segments.items()}
                   | {state["snd_una"]}
                   | {snd_nxt + 1460 * i for i in range(8)})
    point = st.sampled_from(edges) | st.integers(state["snd_una"] - 1500,
                                                 snd_nxt + 1460 * 8)

    def blocks():
        drawn = []
        for _ in range(draw(st.integers(1, 4))):
            start, end = sorted((draw(point), draw(point)))
            drawn.append((start, max(end, start + 1)))
        return drawn

    steps = []
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(("sack", "sack", "sack", "ack", "send",
                                     "data", "time", "time", "srtt",
                                     "rto")))
        if kind == "sack":
            argument = blocks()
        elif kind == "ack":
            argument = (draw(point), blocks() if draw(st.booleans())
                        else [])
        elif kind == "data":
            argument = draw(st.integers(1, 4 * 1460))
        elif kind == "time":
            argument = draw(st.sampled_from((1, 5_000, 20_000, 200_001))
                            | st.integers(1, 400_000))
        elif kind == "srtt":
            argument = draw(st.none() | st.sampled_from((1, 10_000))
                            | st.integers(1, NOW))
        else:
            argument = None
        steps.append((kind, argument))
    return segments, state, steps


def apply_step(conn, kind, argument):
    if kind == "sack":
        conn._handle_ack(ack_header(conn.snd_una, argument))
    elif kind == "ack":
        # A cumulative ACK lands between ``snd_una`` and ``snd_nxt``.
        ack, blocks = argument
        ack = min(max(ack, conn.snd_una), conn.snd_nxt)
        conn._handle_ack(ack_header(ack, blocks))
    elif kind == "send":
        conn._try_send()
    elif kind == "data":
        conn.send(argument)
    elif kind == "time":
        conn.sim.run(until=conn.sim.now + argument)
    elif kind == "srtt":
        conn.rtt.srtt = argument
    else:
        conn._on_rto()


#: Ten full segments from seq 1000, none lost, SACKed or retransmitted,
#: with a 10 us smoothed RTT (the retransmission grace).
TEN_SEGMENTS = {1000 + 1460 * i: [1460, False, 0, False, False]
                for i in range(10)}
TEN_FRESH = dict(FRESH, snd_nxt=15_600, srtt=10_000)


@settings(max_examples=300, deadline=None)
@given(event_sequences())
# SACKing the top marks segments lost and recovery retransmits them below
# the scan point; once their grace has passed, a SACK marks them lost
# again.
@example((TEN_SEGMENTS, TEN_FRESH,
          [("sack", [(14_140, 15_600)]), ("time", 20_000),
           ("sack", [(12_680, 15_600)])]))
# A retransmission still inside its grace when the scan passes it is
# marked lost by a SACK after the grace.
@example(({1000: [1460, True, NOW, False, False],
           2460: [1460, False, 0, False, False],
           3920: [1460, False, 0, False, False],
           5380: [1460, False, 0, False, False],
           6840: [1460, False, 0, False, False]},
          dict(FRESH, srtt=10_000),
          [("sack", [(5380, 8300)]), ("time", 20_000),
           ("sack", [(5380, 8300)])]))
# A cumulative ACK leaves one retransmission among mostly stale heap
# entries; dropping the stale ones keeps it, and a SACK after its grace
# marks it lost.
@example(({1000 + 1460 * i: [1460, False, 0, False, False]
           for i in range(20)},
          dict(TEN_FRESH, snd_nxt=30_200, _in_recovery=True),
          [("sack", [(28_740, 30_200)]), ("ack", (24_360, [])),
           ("time", 20_000), ("sack", [(28_740, 30_200)])]))
def test_scoreboard_matches_full_scan_over_event_sequences(case):
    segments, state, steps = case
    (conn, sent), (model, model_sent) = twin_connections(segments, state)
    for kind, argument in steps:
        apply_step(conn, kind, argument)
        apply_step(model, kind, argument)
        assert scoreboard(conn) == scoreboard(model), kind
        assert sent == model_sent, kind
        assert conn._seg_order == sorted(conn._segments)
