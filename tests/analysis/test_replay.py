"""Replay-divergence detector: identical seeded runs must hash identically;
hidden global-RNG use must be pinpointed at its first divergent event.

The paper experiments are also pinned to fixed trace lengths and digests,
so any change to the event store or the layers that alters which events
run, or in what order, fails here.
"""

import random

import pytest

from repro.analysis import (EventTrace, check_replay, find_divergence,
                            trace_run)
from repro.experiments.fig2_proxy import Fig2Config, run_fig2
from repro.experiments.fig5_multipath import Fig5Config, run_fig5
from repro.experiments.fig6_loadbalance import Fig6Config, run_fig6
from repro.experiments.fig7_isolation import Fig7Config, run_fig7
from repro.experiments.fig8_failover import Fig8Config, run_fig8
from repro.sim import Simulator, microseconds


def noop(*args):
    pass


class TestEventTrace:
    def test_records_executed_events(self):
        sim = Simulator()
        trace = EventTrace()
        trace.attach(sim)
        sim.schedule(5, noop)
        sim.schedule(9, noop)
        sim.run()
        trace.detach()
        assert len(trace) == 2
        time, kind, _uid = trace.event(0)
        assert time == 5
        assert kind == "noop"

    def test_detach_stops_recording(self):
        sim = Simulator()
        trace = EventTrace()
        trace.attach(sim)
        sim.schedule(1, noop)
        sim.run()
        trace.detach()
        sim.schedule(2, noop)
        sim.run()
        assert len(trace) == 1

    def test_digest_stable_and_order_sensitive(self):
        def run(times):
            sim = Simulator()
            trace = EventTrace()
            trace.attach(sim)
            for time in times:
                sim.at(time, noop)
            sim.run()
            return trace.digest()

        assert run([1, 2, 3]) == run([1, 2, 3])
        assert run([1, 2, 3]) != run([1, 2, 4])


class TestFindDivergence:
    def trace_of(self, times):
        sim = Simulator()
        trace = EventTrace()
        trace.attach(sim)
        for time in times:
            sim.at(time, noop)
        sim.run()
        return trace

    def test_identical_traces_have_no_divergence(self):
        assert find_divergence(self.trace_of([1, 2]),
                               self.trace_of([1, 2])) is None

    def test_first_differing_event_pinpointed(self):
        divergence = find_divergence(self.trace_of([1, 2, 5]),
                                     self.trace_of([1, 2, 7]))
        assert divergence is not None
        assert divergence.index == 2
        assert "t=5" in divergence.describe()
        assert "t=7" in divergence.describe()

    def test_length_mismatch_reported(self):
        divergence = find_divergence(self.trace_of([1, 2]),
                                     self.trace_of([1, 2, 3]))
        assert divergence is not None
        assert divergence.index == 2
        assert divergence.left is None
        assert "<run ended>" in divergence.describe()


class TestCheckReplay:
    def test_requires_two_runs(self):
        with pytest.raises(ValueError):
            check_replay(lambda sim: sim.run(), runs=1)

    def test_deterministic_setup_is_ok(self):
        def setup(sim):
            rng = random.Random(42)
            for _ in range(64):
                sim.schedule(rng.randint(1, 10**6), noop)
            sim.run()

        report = check_replay(setup)
        assert report.ok
        assert len(set(report.digests)) == 1
        assert report.events == [64, 64]
        assert "OK" in report.describe()

    def test_global_rng_divergence_detected(self):
        def setup(sim):
            # Deliberately draws from the *global* stream: each run consumes
            # fresh values, so the schedules differ — exactly the hidden
            # nondeterminism SIM002 exists to prevent.
            for _ in range(32):
                sim.schedule(random.randint(1, 10**9), noop)
            sim.run()

        random.seed(1234)
        report = check_replay(setup)
        assert not report.ok
        assert report.divergence is not None
        assert "DIVERGED" in report.describe()
        assert "run A" in report.divergence.describe()

    def test_wall_clock_divergence_detected(self):
        import time

        def setup(sim):
            sim.schedule(time.perf_counter_ns() % 10**6 + 1, noop)
            sim.run()

        report = check_replay(setup, runs=4)
        # perf_counter_ns differs between runs (mod collisions are
        # vanishingly unlikely across 4 samples).
        assert not report.ok


class TestFig5Replay:
    """Regression: the paper experiments replay bit-identically."""

    def test_fig5_mtp_replays_identically(self):
        config = Fig5Config(duration_ns=microseconds(200))

        def setup(sim):
            return run_fig5("mtp", config, sim=sim)

        report = check_replay(setup)
        assert report.ok, report.describe()
        assert report.events[0] > 100  # a real run, not a trivial one

    def test_fig5_dctcp_replays_identically(self):
        config = Fig5Config(duration_ns=microseconds(200))

        def setup(sim):
            return run_fig5("dctcp", config, sim=sim)

        report = check_replay(setup)
        assert report.ok, report.describe()

    def test_trace_run_returns_setup_result(self):
        config = Fig5Config(duration_ns=microseconds(200))
        trace, result = trace_run(
            lambda sim: run_fig5("mtp", config, sim=sim))
        assert result.protocol == "mtp"
        assert len(trace) > 0


def _chaos_config():
    """A compressed fig8 fault timeline that fits a short trace."""
    return Fig8Config(detection_delay_ns=microseconds(20),
                      sample_interval_ns=microseconds(25),
                      flap_down_ns=microseconds(150),
                      flap_up_ns=microseconds(300),
                      migrate_ns=microseconds(400),
                      corrupt_start_ns=microseconds(430),
                      corrupt_stop_ns=microseconds(480),
                      corrupt_probability=0.05,
                      duration_ns=microseconds(600))


def _fig6(system):
    """A Fig-6 run with 300 us of message arrivals: the workload stops
    offering messages 1 ms before the end of the run."""
    return lambda sim: run_fig6(
        system, Fig6Config(duration_ns=microseconds(1300)), sim=sim)


#: name -> (setup, trace length, trace digest), recorded with the ID
#: streams restarted (the autouse fixture in ``tests/conftest.py``).  The
#: fig8 runs use the compressed chaos timeline (link flap, offload
#: migration, corruption window), so the fault paths are pinned too.
#: The fig6 and fig7 runs pin the load balancers and the DropTail and
#: fair-share hops that the perfbench workloads run through.
PINNED_TRACES = {
    "fig2-200us": (
        lambda sim: run_fig2(Fig2Config(duration_ns=microseconds(200)),
                             sim=sim),
        5748, "ecee080bb529cdc0c1c8e71f1d89a09b"),
    "fig5-dctcp-300us": (
        lambda sim: run_fig5("dctcp",
                             Fig5Config(duration_ns=microseconds(300)),
                             sim=sim),
        16345, "aa691a256bc9056cf087b79a827a9949"),
    "fig5-mtp-300us": (
        lambda sim: run_fig5("mtp",
                             Fig5Config(duration_ns=microseconds(300)),
                             sim=sim),
        19065, "82a168f2f73cda5301bb92a4a3890e69"),
    "fig6-ecmp-1300us": (
        _fig6("ecmp"), 22491, "3c0fbfd6d9f37a8a71119fccbe467dcd"),
    "fig6-spray-1300us": (
        _fig6("spray"), 44371, "ac9b54d653fa89cc48873a94c5a83066"),
    "fig6-mtp_lb-1300us": (
        _fig6("mtp_lb"), 22701, "e838d5b51f258950e1e556da59cb8310"),
    "fig7-fair_share-300us": (
        lambda sim: run_fig7("fair_share",
                             Fig7Config(duration_ns=microseconds(300),
                                        warmup_ns=microseconds(100)),
                             sim=sim),
        5239, "9738eb6efd439a3c93d1876bb1cd1996"),
    "fig8-chaos-dctcp-600us": (
        lambda sim: run_fig8("dctcp", _chaos_config(), sim=sim),
        8611, "bb43a9eb0b0951e045a239493efb2d4a"),
    "fig8-chaos-mtp-600us": (
        lambda sim: run_fig8("mtp", _chaos_config(), sim=sim),
        11759, "2bed08423ab749f4f676ecb4085f2ece"),
}


class TestPinnedTraces:
    """The event order of the paper experiments is fixed."""

    @pytest.mark.parametrize("name", sorted(PINNED_TRACES))
    def test_trace_matches_pinned_digest(self, name):
        setup, length, digest = PINNED_TRACES[name]
        trace, _ = trace_run(setup)
        assert (len(trace), trace.digest()) == (length, digest)

    def test_fig8_chaos_replays_itself(self):
        config = _chaos_config()
        report = check_replay(lambda sim: run_fig8("mtp", config, sim=sim))
        assert report.ok, report.describe()
