"""sweep_map: input-order results, and behaviour under crashes,
timeouts, and partial results.

The contract: results come back in input order whether the points run
in-process (``jobs <= 1``) or in worker processes; a healthy robust run
is byte-identical to the plain path; a crashed worker process is retried
(with capped backoff) and recovered where possible; a timed-out point is
recorded and skipped; and partial mode returns everything that completed
plus structured failure records instead of aborting the whole campaign.
"""

import os
import tempfile
import time

import pytest

from repro.perf import SweepError, SweepFailure, SweepOutcome, sweep_map


def _square(value):
    return value * value


def _identify(value):
    return (value, os.getpid())


def _boom(value):
    if value == 3:
        raise ValueError(f"bad point {value}")
    return value * value


def _crash(value):
    if value == 2:
        os._exit(1)  # simulate an OOM kill / segfault
    return value * value


def _crash_once(path_and_value):
    """Crash the first time a given sentinel path is seen, succeed after."""
    path, value = path_and_value
    if value == 1 and not os.path.exists(path):
        with open(path, "w") as sentinel:
            sentinel.write("crashed")
        os._exit(1)
    return value * value


def _sleepy(value):
    if value == 1:
        time.sleep(30)  # sim: ignore[SIM001] - orchestration-side stall
    return value * value


class TestSweepMap:
    def test_serial_matches_builtin_map(self):
        items = list(range(10))
        assert sweep_map(_square, items, jobs=1) == [i * i for i in items]

    def test_parallel_preserves_input_order(self):
        items = list(range(20))
        assert sweep_map(_square, items, jobs=4) == [i * i for i in items]

    def test_parallel_actually_uses_workers(self):
        results = sweep_map(_identify, list(range(8)), jobs=4)
        assert [value for value, _ in results] == list(range(8))
        pids = {pid for _, pid in results}
        # Ran out-of-process.  (How many workers actually got a share is
        # up to the OS scheduler — tiny items can all land on one.)
        assert os.getpid() not in pids

    def test_serial_stays_in_process(self):
        results = sweep_map(_identify, list(range(3)), jobs=1)
        assert {pid for _, pid in results} == {os.getpid()}

    def test_empty_items(self):
        assert sweep_map(_square, [], jobs=4) == []

    def test_single_item_short_circuits(self):
        assert sweep_map(_identify, [5], jobs=8) == [(5, os.getpid())]


class TestHealthyRuns:
    def test_robust_serial_matches_plain(self):
        items = list(range(6))
        plain = sweep_map(_square, items, jobs=1)
        outcome = sweep_map(_square, items, jobs=1, partial=True)
        assert isinstance(outcome, SweepOutcome)
        assert outcome.ok
        assert outcome.results == plain
        assert outcome.completed() == plain

    def test_robust_parallel_matches_plain(self):
        items = list(range(8))
        plain = sweep_map(_square, items, jobs=4)
        outcome = sweep_map(_square, items, jobs=4, partial=True,
                            retries=1)
        assert outcome.ok
        assert outcome.results == plain


class TestWorkerExceptions:
    def test_serial_partial_records_error(self):
        outcome = sweep_map(_boom, list(range(6)), jobs=1, partial=True)
        assert not outcome.ok
        assert outcome.results[3] is None
        assert outcome.completed() == [0, 1, 4, 16, 25]
        [failure] = outcome.failures
        assert failure.index == 3
        assert failure.kind == "error"
        assert "bad point 3" in failure.error
        assert failure.as_dict()["kind"] == "error"

    def test_parallel_partial_records_error(self):
        outcome = sweep_map(_boom, list(range(6)), jobs=3, partial=True)
        assert outcome.results[3] is None
        assert outcome.completed() == [0, 1, 4, 16, 25]
        assert [f.index for f in outcome.failures] == [3]
        assert outcome.failures[0].kind == "error"

    def test_exception_propagates_without_partial(self):
        with pytest.raises(ValueError):
            sweep_map(_boom, list(range(6)), jobs=1, retries=0,
                      partial=False)
        with pytest.raises(ValueError):
            sweep_map(_boom, list(range(6)), jobs=3, timeout_s=30,
                      partial=False)


class TestWorkerCrashes:
    def test_crash_recorded_in_partial_mode(self):
        # A dying worker poisons the whole pool, so under load an
        # innocent sibling future can be the first to observe the
        # breakage; a small retry budget lets innocents recover while
        # the persistent crasher is still recorded as a casualty.
        outcome = sweep_map(_crash, list(range(5)), jobs=2, retries=2,
                            partial=True)
        assert not outcome.ok
        assert {failure.index for failure in outcome.failures} == {2}
        assert all(failure.kind == "crash"
                   for failure in outcome.failures)
        assert outcome.results[2] is None
        # Every other point still completed despite the poisoned pool.
        assert outcome.completed() == [0, 1, 9, 16]

    def test_crash_raises_sweep_error_without_partial(self):
        with pytest.raises(SweepError) as excinfo:
            sweep_map(_crash, list(range(5)), jobs=2, retries=0,
                      partial=False, timeout_s=60)
        assert excinfo.value.failure.kind == "crash"

    def test_transient_crash_recovered_by_retry(self):
        with tempfile.TemporaryDirectory() as tmp:
            sentinel = os.path.join(tmp, "crashed-once")
            items = [(sentinel, value) for value in range(4)]
            outcome = sweep_map(_crash_once, items, jobs=2, retries=1,
                                partial=True)
        assert outcome.ok, outcome.failures
        assert outcome.results == [0, 1, 4, 9]


class TestTimeouts:
    def test_timeout_recorded_and_rest_complete(self):
        outcome = sweep_map(_sleepy, list(range(4)), jobs=2,
                            timeout_s=2.0, partial=True)
        assert not outcome.ok
        [failure] = outcome.failures
        assert failure.kind == "timeout"
        assert failure.index == 1
        assert failure.error == ""
        assert outcome.results[1] is None
        assert outcome.completed() == [0, 4, 9]

    def test_timeout_raises_sweep_error_without_partial(self):
        with pytest.raises(SweepError) as excinfo:
            sweep_map(_sleepy, list(range(3)), jobs=2, timeout_s=2.0,
                      partial=False)
        assert excinfo.value.failure.kind == "timeout"


class TestFailureRecords:
    def test_sweep_failure_repr_and_dict(self):
        failure = SweepFailure(4, {"seed": 9}, "timeout", 2)
        assert "#4" in repr(failure)
        record = failure.as_dict()
        assert record == {"index": 4, "item": "{'seed': 9}",
                          "kind": "timeout", "attempts": 2, "error": ""}

    def test_sweep_error_message(self):
        failure = SweepFailure(1, "x", "crash", 3, error="boom")
        error = SweepError(failure)
        assert "point #1" in str(error)
        assert "crash" in str(error)
        assert error.failure is failure
