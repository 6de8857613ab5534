"""The chaos subsystem: schedules, the controller, and recovery metrics.

A schedule is data (timestamped fault events); the controller replays it
against a live topology; the recovery monitor turns the resulting
goodput timeline into per-fault verdicts.  Everything must be
deterministic from a single seed.
"""

import random

import pytest

from repro.analysis import PacketLedger
from repro.chaos import (ChaosController, ChaosSchedule, FaultEvent,
                         RecoveryMonitor)
from repro.core import MtpStack
from repro.net import DropTailQueue, Network
from repro.sim import Simulator, gbps, microseconds, milliseconds


def chain(sim, queue_capacity=128):
    """a — sw1 — sw2 — b, all 10 Gbps / 2 us."""
    net = Network(sim)
    a = net.add_host("a")
    b = net.add_host("b")
    sw1 = net.add_switch("sw1")
    sw2 = net.add_switch("sw2")
    queue = lambda: DropTailQueue(queue_capacity, 20)
    for left, right in ((a, sw1), (sw1, sw2), (sw2, b)):
        net.connect(left, right, gbps(10), microseconds(2),
                    queue_factory=queue)
    net.install_routes()
    return net, a, b, sw1, sw2


class TestChaosSchedule:
    def test_fluent_builders_accumulate(self):
        schedule = (ChaosSchedule()
                    .link_flap("a", "b", 100, 200)
                    .switch_crash(300, "sw")
                    .switch_restart(400, "sw")
                    .offload_migrate(500, "sw", "sw2", index=1)
                    .corruption_window(600, 700, "sw2", 0.5))
        assert len(schedule) == 7  # flap=2, window=2, rest 1 each

    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(-1, "link_down", ("a", "b"))
        with pytest.raises(ValueError):
            FaultEvent(0, "meteor_strike", "sw")
        with pytest.raises(ValueError):
            ChaosSchedule().link_flap("a", "b", 200, 200)
        with pytest.raises(ValueError):
            ChaosSchedule().corruption_window(100, 100, "sw", 0.5)

    def test_sorted_events_stable_tiebreak(self):
        schedule = (ChaosSchedule()
                    .switch_crash(100, "first")
                    .switch_crash(50, "early")
                    .switch_crash(100, "second"))
        ordered = [e.target for e in schedule.sorted_events()]
        assert ordered == ["early", "first", "second"]

    def test_outage_windows(self):
        schedule = (ChaosSchedule()
                    .link_flap("a", "b", 100, 200)
                    .link_flap("a", "b", 400, 500)
                    .link_down(700, "a", "b"))
        assert schedule.outage_windows("a", "b") == [
            (100, 200), (400, 500), (700, None)]
        assert schedule.outage_windows("a", "b", index=1) == []

    def test_random_flaps_deterministic(self):
        links = [("a", "sw"), ("sw", "b")]
        make = lambda seed: ChaosSchedule.random_flaps(
            links, random.Random(seed), duration_ns=milliseconds(1),
            flaps=5, min_outage_ns=1_000, max_outage_ns=50_000)
        first, second = make(9), make(9)
        assert ([(e.time_ns, e.kind, e.target) for e in first.events]
                == [(e.time_ns, e.kind, e.target) for e in second.events])
        different = make(10)
        assert ([(e.time_ns, e.target) for e in first.events]
                != [(e.time_ns, e.target) for e in different.events])

    def test_random_flaps_validation(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            ChaosSchedule.random_flaps([("a", "b")], rng, 1000, -1, 10, 20)
        with pytest.raises(ValueError):
            ChaosSchedule.random_flaps([("a", "b")], rng, 1000, 1, 20, 10)


class TestChaosController:
    def test_install_twice_rejected(self, sim):
        net, *_ = chain(sim)
        controller = ChaosController(sim, net, ChaosSchedule())
        controller.install()
        with pytest.raises(RuntimeError):
            controller.install()

    def test_past_event_rejected(self, sim):
        net, *_ = chain(sim)
        sim.run(until=microseconds(100))
        schedule = ChaosSchedule().switch_crash(microseconds(50), "sw1")
        with pytest.raises(ValueError):
            ChaosController(sim, net, schedule).install()

    def test_unknown_link_surfaces_lookup_error(self, sim):
        net, *_ = chain(sim)
        schedule = ChaosSchedule().link_down(100, "a", "nonesuch")
        ChaosController(sim, net, schedule).install()
        with pytest.raises(LookupError):
            sim.run()

    def test_missing_offload_surfaces_lookup_error(self, sim):
        net, *_ = chain(sim)
        schedule = ChaosSchedule().offload_migrate(100, "sw1", "sw2")
        ChaosController(sim, net, schedule).install()
        with pytest.raises(LookupError):
            sim.run()

    def test_link_flap_applied_and_survived(self, sim):
        net, a, b, sw1, sw2 = chain(sim)
        link = net.links_between("sw1", "sw2")[0]
        schedule = ChaosSchedule().link_flap(
            "sw1", "sw2", microseconds(50), microseconds(400))
        controller = ChaosController(sim, net, schedule)
        controller.install()
        states = []
        sim.at(microseconds(100), lambda: states.append(link.up))
        sim.at(microseconds(500), lambda: states.append(link.up))
        inbox = []
        MtpStack(b).endpoint(port=100,
                             on_message=lambda ep, msg: inbox.append(msg))
        # Cap the backed-off RTO so post-repair retransmissions arrive
        # within the horizon (the cap is the hardening knob under test).
        sender = MtpStack(a, max_rto_ns=milliseconds(1)).endpoint()
        sender.send_message(b.address, 100, 100_000)
        sim.run(until=milliseconds(20))
        assert states == [False, True]
        assert len(inbox) == 1  # the transport rode out the outage
        assert [(kind, target) for _, kind, target in controller.applied] \
            == [("link_down", "('sw1', 'sw2', 0)"),
                ("link_up", "('sw1', 'sw2', 0)")]

    def test_switch_crash_and_restart(self, sim):
        net, a, b, sw1, sw2 = chain(sim)
        schedule = (ChaosSchedule()
                    .switch_crash(microseconds(50), "sw1")
                    .switch_restart(microseconds(400), "sw1"))
        ChaosController(sim, net, schedule).install()
        inbox = []
        MtpStack(b).endpoint(port=100,
                             on_message=lambda ep, msg: inbox.append(msg))
        MtpStack(a).endpoint().send_message(b.address, 100, 100_000)
        alive = []
        sim.at(microseconds(100), lambda: alive.append(sw1.alive))
        sim.run(until=milliseconds(20))
        assert alive == [False]
        assert sw1.alive
        assert len(inbox) == 1

    def test_offload_migration_hands_state_over(self, sim):
        net, a, b, sw1, sw2 = chain(sim)

        class CountingOffload:
            def __init__(self):
                self.packets = 0
                self.migrations = []

            def process(self, packet, switch, ingress):
                self.packets += 1
                return None

            def on_migrate(self, src, dst):
                self.migrations.append((src.name, dst.name))

        offload = CountingOffload()
        sw1.add_processor(offload)
        schedule = ChaosSchedule().offload_migrate(
            microseconds(200), "sw1", "sw2")
        ChaosController(sim, net, schedule).install()
        inbox = []
        MtpStack(b).endpoint(port=100,
                             on_message=lambda ep, msg: inbox.append(msg))
        MtpStack(a).endpoint().send_message(b.address, 100, 500_000)
        sim.run(until=milliseconds(20))
        assert offload.migrations == [("sw1", "sw2")]
        assert offload not in sw1.processors
        assert offload in sw2.processors
        # The counter kept counting on the new switch: it saw more
        # packets than had traversed sw1 by migration time.
        assert len(inbox) == 1
        assert offload.packets > 0

    def test_corruption_window_detected_and_repaired(self, sim):
        ledger = sim.ledger = PacketLedger()
        net, a, b, sw1, sw2 = chain(sim)
        schedule = ChaosSchedule().corruption_window(
            microseconds(10), microseconds(400), "sw2", 0.1)
        controller = ChaosController(sim, net, schedule, seed=3)
        controller.install()
        inbox = []
        MtpStack(b).endpoint(port=100,
                             on_message=lambda ep, msg: inbox.append(msg))
        MtpStack(a).endpoint().send_message(b.address, 100, 200_000)
        sim.run(until=milliseconds(50))
        corruptor = sw2.processors[0]
        assert corruptor.corrupted > 0
        assert not corruptor.active  # window closed
        caught = (ledger.drop_reasons.get("a:checksum", 0)
                  + ledger.drop_reasons.get("b:checksum", 0))
        assert caught == corruptor.corrupted
        assert len(inbox) == 1

    def test_same_seed_same_corruption(self):
        def run(seed):
            sim = Simulator()
            net, a, b, sw1, sw2 = chain(sim)
            schedule = ChaosSchedule().corruption_window(
                microseconds(10), microseconds(400), "sw2", 0.1)
            ChaosController(sim, net, schedule, seed=seed).install()
            MtpStack(b).endpoint(port=100)
            MtpStack(a).endpoint().send_message(b.address, 100, 200_000)
            sim.run(until=milliseconds(20))
            return sw2.processors[0].corrupted

        assert run(11) == run(11)


class TestRecoveryMonitor:
    INTERVAL = microseconds(10)

    def _feed(self, sim, monitor, start_ns, stop_ns, per_bin=1000):
        t = start_ns
        while t < stop_ns:
            sim.at(t, monitor.record_bytes, per_bin)
            t += self.INTERVAL

    def test_synthetic_timeline_verdict(self, sim):
        retx = {"count": 0}
        monitor = RecoveryMonitor(sim, self.INTERVAL,
                                  retx_probe=lambda: retx["count"])
        # Healthy: 1000 B per 10 us bin for 100 us.
        self._feed(sim, monitor, 0, microseconds(100))
        # Fault at t=100 us; the outage costs 5 retransmissions.
        sim.at(microseconds(100), monitor.note_fault, "outage")
        sim.at(microseconds(150),
               lambda: retx.__setitem__("count", retx["count"] + 5))
        # Recovery: goodput resumes at t=200 us.
        self._feed(sim, monitor, microseconds(200), microseconds(300))
        sim.run(until=microseconds(300))
        verdicts = monitor.report(recover_fraction=0.8,
                                  until_ns=microseconds(300))
        assert len(verdicts) == 1
        verdict = verdicts[0]
        assert verdict.label == "outage"
        assert verdict.recovered
        assert verdict.recovered_ns == microseconds(200)
        assert verdict.time_to_recovery_ns == microseconds(100)
        assert verdict.dip_bps == 0.0
        assert verdict.retx_storm == 5
        as_dict = verdict.as_dict()
        assert as_dict["label"] == "outage"
        assert as_dict["time_to_recovery_ns"] == microseconds(100)

    def test_never_recovers(self, sim):
        monitor = RecoveryMonitor(sim, self.INTERVAL)
        self._feed(sim, monitor, 0, microseconds(100))
        sim.at(microseconds(100), monitor.note_fault, "dead")
        sim.run(until=microseconds(300))
        verdict = monitor.report(until_ns=microseconds(300))[0]
        assert not verdict.recovered
        assert verdict.time_to_recovery_ns is None
        assert verdict.retx_storm is None  # no probe configured

    def test_bad_recover_fraction(self, sim):
        monitor = RecoveryMonitor(sim, self.INTERVAL)
        with pytest.raises(ValueError):
            monitor.report(recover_fraction=0.0)
        with pytest.raises(ValueError):
            monitor.report(recover_fraction=1.5)
