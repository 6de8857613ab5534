"""Property tests: ``Runs`` against a brute-force set of covered integers."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transport.base import Runs

#: ``("add", start, end)`` with empty and inverted spans allowed, or
#: ``("advance", point, None)``; a small range makes spans collide often.
ops = st.lists(st.one_of(
    st.tuples(st.just("add"), st.integers(0, 60), st.integers(0, 60)),
    st.tuples(st.just("advance"), st.integers(0, 60), st.none())),
    max_size=60)


def covered(spans):
    return {value for start, end in spans for value in range(start, end)}


def check_shape(spans):
    """Sorted, disjoint, non-empty, and touching spans merged."""
    for start, end in spans:
        assert start < end
    for (_, end_a), (start_b, _) in zip(spans, spans[1:]):
        assert start_b > end_a


@given(ops)
@settings(max_examples=500)
def test_matches_brute_force_set(operations):
    runs = Runs()
    held = set()
    for op, a, b in operations:
        if op == "add":
            runs.add(a, b)
            held |= set(range(a, b))
        else:
            end = a
            while end in held:
                end += 1
            assert runs.advance(a) == end
            # Everything below the contiguous end is absorbed; spans
            # wholly below ``a`` are dropped too.
            held = {value for value in held if value >= end}
        check_shape(runs.spans)
        assert covered(runs.spans) == held


@given(ops)
@settings(max_examples=300)
def test_in_order_point_delivers_each_integer_once(operations):
    """Advancing one in-order point, as a receiver does, never moves it
    back and never crosses an integer nothing covered."""
    runs = Runs()
    point = 0
    ever = set()
    for op, a, b in operations:
        if op == "add":
            runs.add(a, b)
            ever |= set(range(a, b))
        end = runs.advance(point)
        assert end >= point
        assert set(range(point, end)) <= ever
        assert all(start > end for start, _ in runs.spans)
        point = end


def test_examples():
    runs = Runs()
    runs.add(10, 20)
    runs.add(30, 40)
    runs.add(20, 25)  # touches (10, 20): merged
    runs.add(5, 5)  # empty: no-op
    assert runs.spans == [(10, 25), (30, 40)]
    assert runs.advance(0) == 0
    assert runs.advance(10) == 25
    assert runs.spans == [(30, 40)]
    runs.add(0, 100)
    assert runs.spans == [(0, 100)]
    assert runs.advance(100) == 100
    assert runs.spans == []
