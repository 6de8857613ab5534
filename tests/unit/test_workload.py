"""Workload generation: distributions and arrival processes."""

import random

import pytest

from repro.apps import (FixedSize, LogUniformSize, MessageWorkload,
                        PoissonArrivals, UniformArrivals)
from repro.sim import Simulator, milliseconds


@pytest.fixture
def rng():
    return random.Random(7)


class TestDistributions:
    def test_fixed(self, rng):
        dist = FixedSize(1000)
        assert dist.sample(rng) == 1000
        assert dist.mean() == 1000

    def test_loguniform_bounds(self, rng):
        dist = LogUniformSize(10_000, 1_000_000)
        samples = [dist.sample(rng) for _ in range(500)]
        assert all(10_000 <= sample <= 1_000_000 for sample in samples)

    def test_loguniform_skew_toward_small(self, rng):
        dist = LogUniformSize(10_000, 10_000_000)
        samples = [dist.sample(rng) for _ in range(2000)]
        median = sorted(samples)[len(samples) // 2]
        midpoint = (10_000 + 10_000_000) / 2
        assert median < midpoint / 5  # strongly skewed

    def test_loguniform_mean_formula(self, rng):
        dist = LogUniformSize(1000, 1_000_000)
        samples = [dist.sample(rng) for _ in range(20_000)]
        empirical = sum(samples) / len(samples)
        assert empirical == pytest.approx(dist.mean(), rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedSize(0)
        with pytest.raises(ValueError):
            LogUniformSize(10, 5)


class TestArrivals:
    def test_poisson_mean_gap(self, rng):
        arrivals = PoissonArrivals(rate_per_sec=1_000_000)  # 1 msg/us
        gaps = [arrivals.next_gap(rng) for _ in range(5000)]
        mean_gap = sum(gaps) / len(gaps)
        assert mean_gap == pytest.approx(1000, rel=0.1)  # ns

    def test_uniform_gap(self, rng):
        arrivals = UniformArrivals(500)
        assert arrivals.next_gap(rng) == 500

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0)
        with pytest.raises(ValueError):
            UniformArrivals(0)


class TestMessageWorkload:
    def test_generates_until_max(self, rng):
        sim = Simulator()
        sizes = []
        workload = MessageWorkload(sim, rng, FixedSize(100),
                                   UniformArrivals(1000), sizes.append,
                                   max_messages=10)
        workload.start()
        sim.run()
        assert len(sizes) == 10
        assert workload.bytes_generated == 1000

    def test_stop_at_deadline(self, rng):
        sim = Simulator()
        count = [0]
        workload = MessageWorkload(sim, rng, FixedSize(100),
                                   UniformArrivals(1000),
                                   lambda size: count.__setitem__(0,
                                                                  count[0] + 1),
                                   stop_at_ns=5000)
        workload.start()
        sim.run(until=milliseconds(1))
        assert count[0] <= 6

    def test_manual_stop(self, rng):
        sim = Simulator()
        emitted = []
        workload = MessageWorkload(sim, rng, FixedSize(100),
                                   UniformArrivals(1000), emitted.append)
        workload.start()
        sim.schedule(3500, workload.stop)
        sim.run(until=milliseconds(1))
        assert len(emitted) == 4
