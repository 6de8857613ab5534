"""Property tests: TCP receiver SACK-range generation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Network, Packet
from repro.sim import Simulator, gbps
from repro.transport import ConnectionCallbacks, TcpHeader, TcpStack
from repro.transport.tcp import FLAG_ACK

#: Arbitrary out-of-order segment maps: seq -> length.
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
    """Buffer ``{seq: length}`` out-of-order segments at ``receiver``."""
    for seq, length in ooo.items():
        receiver._buffer_ooo(seq, length)


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
    ranges = receiver._sack_ranges(max_blocks=100)
    for (start, end) in ranges:
        assert start < end
    for (_, end_a), (start_b, _) in zip(ranges, ranges[1:]):
        assert start_b > end_a  # strictly increasing, disjoint


@given(ooo_maps)
@settings(max_examples=200, deadline=None)
def test_every_ooo_byte_is_covered(ooo):
    receiver = make_receiver()
    hold(receiver, ooo)
    ranges = receiver._sack_ranges(max_blocks=10 ** 6)

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
    assert len(receiver._sack_ranges(max_blocks=4)) <= 4


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=10_000),
                          st.integers(min_value=1, max_value=1460)),
                max_size=30))
@settings(max_examples=200, deadline=None)
def test_runs_match_sorted_walk_in_any_arrival_order(arrivals):
    """Merging each segment into the runs as it arrives, in any order and
    with overlaps and duplicates, gives the runs a sort of the whole
    out-of-order map gives."""
    receiver = make_receiver()
    for seq, length in arrivals:
        receiver._buffer_ooo(seq, length)
        assert (receiver._sack_ranges(max_blocks=10 ** 6)
                == sorted_walk_ranges(receiver._ooo))
    assert receiver._sack_ranges() == sorted_walk_ranges(receiver._ooo)[:4]


@given(st.lists(st.integers(min_value=1, max_value=1460), min_size=1,
                max_size=20).flatmap(lambda sizes: st.tuples(
                    st.just(sizes),
                    st.lists(st.integers(0, len(sizes) - 1), max_size=40))))
@settings(max_examples=200, deadline=None)
def test_receive_path_runs_match_sorted_walk(case):
    """Segments of one stream arriving out of order, duplicated or not at
    all: after each one, and at each delivery while an in-order arrival
    drains held data (an application may send a window update from
    there), the runs are those of the held segments."""
    sizes, order = case
    receiver = make_receiver()

    def check_runs(*_):
        ranges = receiver._sack_ranges(max_blocks=10 ** 6)
        assert ranges == sorted_walk_ranges(receiver._ooo)
        # Mid-drain the next held segment may start at ``rcv_nxt``.
        assert all(start >= receiver.rcv_nxt for start, _ in ranges)

    receiver.callbacks.on_data = check_runs
    starts = [receiver.rcv_nxt]
    for size in sizes:
        starts.append(starts[-1] + size)
    for index in order:
        header = TcpHeader(receiver.remote_port, receiver.local_port,
                           starts[index], 1, FLAG_ACK, 0, False, 0, -1,
                           sizes[index])
        packet = Packet(receiver.remote_address,
                        receiver.stack.host.address, 40 + sizes[index],
                        "tcp", header)
        receiver._handle_data(packet, header)
        check_runs()
        assert all(start > receiver.rcv_nxt
                   for start, _ in receiver._sack_ranges())
