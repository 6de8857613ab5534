"""Property tests: TCP receiver SACK-range generation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Network
from repro.sim import Simulator, gbps
from repro.transport import ConnectionCallbacks, TcpStack
from tests.util import receive_segment

#: Arbitrary out-of-order segment maps: offset above ``rcv_nxt`` -> length.
ooo_maps = st.dictionaries(
    keys=st.integers(min_value=1, max_value=10_000),
    values=st.integers(min_value=1, max_value=1460),
    min_size=0, max_size=30)


def make_receiver():
    sim = Simulator()
    net = Network(sim)
    a = net.add_host("a")
    b = net.add_host("b")
    net.connect(a, b, gbps(1), 0)
    net.install_routes()
    stack_b = TcpStack(b)
    conns = []

    def accept(conn):
        conns.append(conn)
        return ConnectionCallbacks()

    stack_b.listen(80, accept)
    TcpStack(a).connect(b.address, 80)
    sim.run()
    return conns[0]


def hold(receiver, ooo):
    """Deliver ``{offset: length}`` segments at ``rcv_nxt + offset``, all
    out of order, through the receive path."""
    base = receiver.rcv_nxt
    for offset, length in ooo.items():
        receive_segment(receiver, base + offset, length)
    assert receiver.rcv_nxt == base


def held_runs(receiver, max_blocks=None):
    """The receiver's out-of-order runs, as offsets above ``rcv_nxt``."""
    base = receiver.rcv_nxt
    return [(start - base, end - base)
            for start, end in receiver._ooo.spans[:max_blocks]]


def sorted_walk_ranges(ooo):
    """The runs of ``{seq: length}`` by sorting and walking every segment,
    as the receiver computed them on each ACK before it kept runs."""
    ranges = []
    seqs = sorted(ooo)
    if not seqs:
        return ranges
    start = seqs[0]
    end = start + ooo[start]
    for seq in seqs:
        if seq <= end:
            end = max(end, seq + ooo[seq])
            continue
        ranges.append((start, end))
        start, end = seq, seq + ooo[seq]
    ranges.append((start, end))
    return ranges


@given(ooo_maps)
@settings(max_examples=200, deadline=None)
def test_ranges_sorted_and_disjoint(ooo):
    receiver = make_receiver()
    hold(receiver, ooo)
    ranges = held_runs(receiver, max_blocks=100)
    for (start, end) in ranges:
        assert start < end
    for (_, end_a), (start_b, _) in zip(ranges, ranges[1:]):
        assert start_b > end_a  # strictly increasing, disjoint


@given(ooo_maps)
@settings(max_examples=200, deadline=None)
def test_every_ooo_byte_is_covered(ooo):
    receiver = make_receiver()
    hold(receiver, ooo)
    ranges = held_runs(receiver)

    def covered(position):
        return any(start <= position < end for start, end in ranges)

    for seq, length in ooo.items():
        assert covered(seq)
        assert covered(seq + length - 1)


@given(ooo_maps)
@settings(max_examples=100, deadline=None)
def test_block_cap_respected(ooo):
    receiver = make_receiver()
    hold(receiver, ooo)
    sent = []
    receiver.stack.send_packet = sent.append
    receiver._send_ack()
    blocks = sent[-1].header.sack_blocks
    assert len(blocks) <= 4
    assert [(start - receiver.rcv_nxt, end - receiver.rcv_nxt)
            for start, end in blocks] == held_runs(receiver)[:4]


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=10_000),
                          st.integers(min_value=1, max_value=1460)),
                max_size=30))
@settings(max_examples=200, deadline=None)
def test_runs_match_sorted_walk_in_any_arrival_order(arrivals):
    """Merging each segment into the runs as it arrives, in any order and
    with overlaps and duplicates, gives the runs a sort of every segment
    held so far gives."""
    receiver = make_receiver()
    held = {}
    for seq, length in arrivals:
        hold(receiver, {seq: length})
        held[seq] = max(held.get(seq, 0), length)
        assert held_runs(receiver) == sorted_walk_ranges(held)


@given(st.lists(st.integers(min_value=1, max_value=1460), min_size=1,
                max_size=20).flatmap(lambda sizes: st.tuples(
                    st.just(sizes),
                    st.lists(st.integers(0, len(sizes) - 1), max_size=40))))
@settings(max_examples=200, deadline=None)
def test_receive_path_runs_match_sorted_walk(case):
    """Segments of one stream arriving out of order, duplicated or not at
    all: after each one, and at the delivery an in-order arrival makes (an
    application may send a window update from there), the runs are those
    of the segments held above ``rcv_nxt``, and every byte below it was
    delivered."""
    sizes, order = case
    receiver = make_receiver()
    base = receiver.rcv_nxt
    starts = [base]
    for size in sizes:
        starts.append(starts[-1] + size)
    arrived = set()

    def check_runs(*_):
        held = {starts[i]: sizes[i] for i in arrived
                if starts[i] > receiver.rcv_nxt}
        assert receiver._ooo.spans == sorted_walk_ranges(held)
        assert receiver.bytes_delivered == receiver.rcv_nxt - base

    receiver.callbacks.on_data = check_runs
    for index in order:
        arrived.add(index)
        receive_segment(receiver, starts[index], sizes[index])
        check_runs()
    in_order = 0
    while in_order in arrived:
        in_order += 1
    assert receiver.rcv_nxt == starts[in_order]
