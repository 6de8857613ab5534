"""Seed sequences."""

from repro.sim import SeedSequence


class TestSeedSequence:
    def test_same_name_same_stream(self):
        seeds = SeedSequence(7)
        assert seeds.stream("a") is seeds.stream("a")

    def test_different_names_different_draws(self):
        seeds = SeedSequence(7)
        a = [seeds.stream("a").random() for _ in range(5)]
        b = [seeds.stream("b").random() for _ in range(5)]
        assert a != b

    def test_reproducible_across_instances(self):
        first = SeedSequence(7).stream("workload").random()
        second = SeedSequence(7).stream("workload").random()
        assert first == second

    def test_root_seed_changes_streams(self):
        first = SeedSequence(1).stream("x").random()
        second = SeedSequence(2).stream("x").random()
        assert first != second

    def test_spawn_independent(self):
        seeds = SeedSequence(7)
        child_a = seeds.spawn("tenant-a").stream("workload").random()
        child_b = seeds.spawn("tenant-b").stream("workload").random()
        assert child_a != child_b

