"""The RFC 6298 estimator every transport shares (TCP, QUIC and MTP)."""

from repro.sim import microseconds, milliseconds
from repro.transport.base import RtoEstimator

MIN = microseconds(200)
MAX = milliseconds(10)


def test_before_any_sample_rto_is_four_minimums():
    estimator = RtoEstimator(MIN, MAX)
    assert estimator.srtt is None
    assert estimator.rto == 4 * MIN


def test_first_sample_sets_srtt_and_half_variance():
    estimator = RtoEstimator(MIN, MAX)
    assert estimator.sample(now=1_000_000, ts_echo=600_000) == 400_000
    assert (estimator.srtt, estimator.rttvar) == (400_000, 200_000)
    assert estimator.rto == 400_000 + 4 * 200_000


def test_later_samples_are_ewma():
    estimator = RtoEstimator(MIN, MAX)
    estimator.sample(400_000, 0)
    estimator.sample(200_000, 0)
    # rttvar = 3/4 * 200000 + 1/4 * |400000 - 200000|
    # srtt = 7/8 * 400000 + 1/8 * 200000
    assert (estimator.srtt, estimator.rttvar) == (375_000, 200_000)


def test_missing_or_future_timestamps_are_not_samples():
    estimator = RtoEstimator(MIN, MAX)
    assert estimator.sample(now=1_000, ts_echo=-1) is None
    assert estimator.sample(now=1_000, ts_echo=2_000) is None
    assert estimator.srtt is None


def test_rto_is_clamped_to_min_and_max():
    estimator = RtoEstimator(MIN, MAX)
    estimator.sample(10, 0)  # srtt + 4 * rttvar = 30 ns
    assert estimator.rto == MIN
    slow = RtoEstimator(MIN, MAX)
    slow.sample(milliseconds(20), 0)
    assert slow.rto == MAX


def test_max_below_min_is_raised_to_min():
    assert RtoEstimator(MIN, MIN // 2).max_ns == MIN


def test_backoff_doubles_up_to_the_cap_and_resets():
    estimator = RtoEstimator(MIN, MAX)
    estimator.sample(microseconds(100), 0)
    base = estimator.rto
    timeouts = []
    for _ in range(8):
        estimator.backoff += 1
        timeouts.append(estimator.rto)
    assert timeouts[:5] == [base << step for step in range(1, 6)]
    assert timeouts[5:] == [MAX] * 3
    estimator.backoff = 0
    assert estimator.rto == base
