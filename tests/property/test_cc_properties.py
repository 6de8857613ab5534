"""Property tests: congestion-controller and CC-manager invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FB_ECN, Feedback, PathletCcManager, WindowEcnController
from repro.sim import microseconds

MSS = 1460

ack_events = st.lists(
    st.tuples(st.booleans(),                      # marked?
              st.integers(min_value=1, max_value=3 * MSS),  # acked bytes
              st.integers(min_value=1000, max_value=100_000)),  # rtt ns
    min_size=1, max_size=200)


@given(ack_events)
@settings(max_examples=200)
def test_window_never_below_floor(events):
    controller = WindowEcnController(mss=MSS)
    now = 0
    for marked, acked, rtt in events:
        now += rtt
        controller.on_ack(Feedback(FB_ECN, 1.0 if marked else 0.0),
                          acked, rtt, now)
        assert controller.window() >= controller.min_window


@given(ack_events)
@settings(max_examples=200)
def test_alpha_stays_in_unit_interval(events):
    controller = WindowEcnController(mss=MSS)
    now = 0
    for marked, acked, rtt in events:
        now += rtt
        controller.on_ack(Feedback(FB_ECN, 1.0 if marked else 0.0),
                          acked, rtt, now)
        assert 0.0 <= controller.alpha <= 1.0


@given(st.integers(min_value=1, max_value=100))
@settings(max_examples=50)
def test_losses_never_kill_window(n_losses):
    controller = WindowEcnController(mss=MSS)
    for index in range(n_losses):
        controller.on_loss(index * 1000)
    assert controller.window() >= controller.min_window


charge_events = st.lists(
    st.tuples(st.sampled_from([(1,), (2,), (1, 2)]),  # path
              st.sampled_from(["tcA", "tcB"]),
              st.integers(min_value=1, max_value=10_000)),
    min_size=1, max_size=100)


@given(charge_events)
@settings(max_examples=200)
def test_charge_uncharge_returns_to_zero(events):
    manager = PathletCcManager()
    for path, tc, nbytes in events:
        manager.charge(path, tc, nbytes)
    for path, tc, nbytes in events:
        manager.uncharge(path, tc, nbytes)
    for pathlet_id in (1, 2):
        for tc in ("tcA", "tcB"):
            assert manager.inflight(pathlet_id, tc) == 0


def balances(manager):
    return {(pathlet_id, tc): manager.inflight(pathlet_id, tc)
            for pathlet_id in (1, 2) for tc in ("tcA", "tcB")}


@given(charge_events, st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_inflight_never_negative(events, rng):
    """An over-release raises and changes no balance; matched releases,
    in any order, never take a balance below zero."""
    manager = PathletCcManager()
    for path, tc, nbytes in events:
        before = balances(manager)
        # One byte more than the smallest balance on the path.
        excess = min(before[(pathlet_id, tc)] for pathlet_id in path) + 1
        with pytest.raises(ValueError):
            manager.uncharge(path, tc, excess)
        assert balances(manager) == before
        manager.charge(path, tc, nbytes)
    releases = list(events)
    rng.shuffle(releases)
    for path, tc, nbytes in releases:
        manager.uncharge(path, tc, nbytes)
        assert min(balances(manager).values()) >= 0
    assert set(balances(manager).values()) == {0}


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=5),
                          st.booleans()),
                min_size=1, max_size=100))
@settings(max_examples=100)
def test_feedback_only_touches_reported_pathlet(events):
    manager = PathletCcManager()
    untouched = manager.window(99, "default")
    now = 0
    for pathlet_id, marked in events:
        now += microseconds(20)
        feedback = [(pathlet_id, 0,
                     Feedback(FB_ECN, 1.0 if marked else 0.0))]
        manager.on_ack(7, "default", feedback, MSS, microseconds(20), now)
    assert manager.window(99, "default") == untouched
