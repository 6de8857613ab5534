"""TieShuffleSimulator: same-time events in a seeded random order."""

import pytest

from repro.analysis import TieShuffleSimulator, check_replay, trace_run
from repro.experiments.__main__ import _isolates
from repro.experiments.fig7_isolation import Fig7Config, run_fig7
from repro.sim import SimulationError, Timer, microseconds, milliseconds


def _fair_share(sim):
    return run_fig7("fair_share",
                    Fig7Config(duration_ns=milliseconds(1),
                               warmup_ns=microseconds(300)),
                    sim=sim)


def _tie_order(seed, ties=32):
    sim = TieShuffleSimulator(seed)
    order = []
    for index in range(ties):
        sim.schedule(5, order.append, index)
    sim.run()
    return order


class TestKernel:
    def test_same_time_order_follows_the_seed(self):
        assert _tie_order(1) == _tie_order(1)
        assert _tie_order(1) != _tie_order(2)
        assert sorted(_tie_order(1)) == list(range(32))
        assert _tie_order(1) != list(range(32))

    def test_time_order_kept(self):
        sim = TieShuffleSimulator(3)
        fired = []
        for time in (30, 10, 20, 10, 0):
            sim.at(time, lambda time=time: fired.append(sim.now))
        sim.schedule(15, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0, 10, 10, 15, 20, 30]

    def test_timers_restart_and_stop(self):
        sim = TieShuffleSimulator(4)
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.restart(100)
        timer.restart(50)        # earlier: the first entry goes dead
        sim.run(until=60)
        timer.restart(100)       # later: deferred re-arm
        stopped = Timer(sim, lambda: fired.append(-1))
        stopped.restart(10)
        stopped.stop()
        sim.run()
        assert fired == [50, 160]
        assert sim.pending_events() == 0

    def test_scheduling_into_the_past_rejected(self):
        sim = TieShuffleSimulator(5)
        sim.run(until=10)
        with pytest.raises(SimulationError):
            sim.schedule(-1, print)
        with pytest.raises(SimulationError):
            sim.at(9, print)


class TestFairShareUnderTieOrders:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_fair_share_isolates(self, seed):
        result = _fair_share(TieShuffleSimulator(seed))
        assert _isolates(result), result

    def test_same_seed_same_run(self):
        report = check_replay(_fair_share,
                              sim_factory=lambda: TieShuffleSimulator(1))
        assert report.ok, report.describe()
        other, _ = trace_run(_fair_share,
                             sim_factory=lambda: TieShuffleSimulator(2))
        assert other.digest() != report.digests[0]
