"""sweep_map: input-order results, in-process or in worker processes.

The contract: results come back in input order whether the points run
in-process (``jobs <= 1``) or in worker processes, and a worker's
exception propagates as itself either way.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.experiments.common import sweep_map


def _square(value):
    return value * value


def _identify(value):
    return (value, os.getpid())


def _boom(value):
    if value == 3:
        raise ValueError(f"bad point {value}")
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

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="bad point 3"):
            sweep_map(_boom, list(range(6)), jobs=1)
        with pytest.raises(ValueError, match="bad point 3"):
            sweep_map(_boom, list(range(6)), jobs=3)


def test_importing_experiments_leaves_the_pool_modules_out():
    """A single-process run never pays for the process-pool imports."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [path for path in (env.get("PYTHONPATH"),) if path])
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.experiments; print(sorted(name for name in"
         " ('multiprocessing', 'concurrent.futures') if name in"
         " sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert loaded.strip() == "[]"
