"""Property tests: gateway bridged-stream reordering invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.offloads.gateway import BridgeChunk, TcpMtpGateway, _Session
from repro.sim import Simulator


class LocalLeg:
    """Stands in for the gateway's TCP leg: records sends and closes."""

    def __init__(self):
        self.sent = 0
        self.closed_after = []  # bytes sent when each close() ran

    def send(self, nbytes):
        assert not self.closed_after, "data sent after close"
        self.sent += nbytes

    def close(self):
        self.closed_after.append(self.sent)


@st.composite
def chunk_sequences(draw):
    """A chunk partition of a stream and its one-offset FIN chunk, as a
    gateway relays them, plus an arrival permutation."""
    n_chunks = draw(st.integers(min_value=1, max_value=30))
    lengths = draw(st.lists(st.integers(min_value=1, max_value=5000),
                            min_size=n_chunks, max_size=n_chunks))
    chunks = []
    offset = 0
    for length in lengths:
        chunks.append(BridgeChunk(1, "fwd", offset, length))
        offset += length
    chunks.append(BridgeChunk(1, "fwd", offset, 1, fin=True))
    order = draw(st.permutations(range(len(chunks))))
    return chunks, order


def bridge(chunks, order, check=lambda session: None):
    """Feed ``chunks`` in ``order`` to a gateway session's receive path;
    returns the local leg."""
    gateway = TcpMtpGateway(Simulator(), "gw")
    session = _Session(1, 0)
    session.conn = leg = LocalLeg()
    for index in order:
        gateway._deliver(session, chunks[index])
        check(session)
    return leg


def stream_bytes(chunks):
    return sum(chunk.length for chunk in chunks if not chunk.fin)


@given(chunk_sequences())
@settings(max_examples=300)
def test_any_arrival_order_releases_all_bytes(data):
    chunks, order = data
    leg = bridge(chunks, order)
    assert leg.sent == stream_bytes(chunks)
    assert len(leg.closed_after) == 1


@given(chunk_sequences())
@settings(max_examples=300)
def test_release_is_prefix_ordered(data):
    chunks, order = data

    def check(session):
        # next_offset only ever covers a contiguous prefix.
        assert all(start > session.next_offset
                   for start, _ in session.held.spans)
        assert session.conn.sent == min(session.next_offset,
                                        stream_bytes(chunks))

    bridge(chunks, order, check)


@given(chunk_sequences())
@settings(max_examples=200)
def test_fin_only_after_everything_before_it(data):
    chunks, order = data
    leg = bridge(chunks, order)
    # FIN can only be released once every earlier byte was.
    assert leg.closed_after == [stream_bytes(chunks)]
