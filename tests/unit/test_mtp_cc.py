"""Pathlet congestion controllers and the end-host CC manager."""

import pytest

from repro.core import (FB_DELAY, FB_ECN, FB_RATE, DelayController,
                        Feedback, PathletCcManager, RateController,
                        UNKNOWN_PATHLET, WindowEcnController,
                        controller_for_feedback)
from repro.sim import microseconds

MSS = 1460
RTT = microseconds(20)


class TestWindowEcn:
    def test_grows_without_marks(self):
        cc = WindowEcnController(mss=MSS)
        start = cc.window()
        for i in range(20):
            cc.on_ack(Feedback(FB_ECN, 0.0), MSS, RTT, now=i * RTT)
        assert cc.window() > start

    def test_shrinks_on_marks(self):
        cc = WindowEcnController(mss=MSS)
        for i in range(20):
            cc.on_ack(Feedback(FB_ECN, 0.0), MSS, RTT, now=i * RTT)
        grown = cc.window()
        cc.on_ack(Feedback(FB_ECN, 1.0), MSS, RTT, now=21 * RTT)
        assert cc.window() < grown

    def test_at_most_one_reduction_per_rtt(self):
        cc = WindowEcnController(mss=MSS, init_window_segments=100)
        now = 100 * RTT
        cc.on_ack(Feedback(FB_ECN, 1.0), MSS, RTT, now)
        after_first = cc.window()
        cc.on_ack(Feedback(FB_ECN, 1.0), MSS, RTT, now + 1)
        # No second cut inside the same window: the window may only have
        # grown (DCTCP keeps growing per acked byte between cuts).
        assert cc.window() >= after_first
        assert cc.window() < after_first + 2 * MSS

    def test_alpha_tracks_mark_fraction(self):
        cc = WindowEcnController(mss=MSS, g=0.5)
        # All-marked traffic: alpha should stay high.
        for i in range(50):
            cc.on_ack(Feedback(FB_ECN, 1.0), MSS, RTT, now=i * 2 * RTT)
        assert cc.alpha > 0.8
        # Then unmarked traffic: alpha decays.
        base = 200 * RTT
        for i in range(50):
            cc.on_ack(Feedback(FB_ECN, 0.0), MSS, RTT, now=base + i * 2 * RTT)
        assert cc.alpha < 0.2

    def test_window_floor(self):
        cc = WindowEcnController(mss=MSS, init_window_segments=1)
        for i in range(50):
            cc.on_ack(Feedback(FB_ECN, 1.0), MSS, RTT, now=i * 2 * RTT)
        assert cc.window() >= MSS

    def test_loss_halves(self):
        cc = WindowEcnController(mss=MSS, init_window_segments=20)
        cc.on_loss(0)
        assert cc.window() == 10 * MSS


class TestRateController:
    def test_window_follows_rate(self):
        cc = RateController(mss=MSS)
        cc.on_ack(Feedback(FB_RATE, 10e9), MSS, RTT, 0)
        # 10 Gbps x 20 us = 25 KB.
        assert cc.window() == pytest.approx(25_000, rel=0.1)

    def test_rate_smoothing(self):
        cc = RateController(mss=MSS, smoothing=0.5)
        cc.on_ack(Feedback(FB_RATE, 10e9), MSS, RTT, 0)
        cc.on_ack(Feedback(FB_RATE, 0.0), MSS, RTT, 1)
        assert cc.rate_bps == pytest.approx(5e9)

    def test_ignores_other_feedback(self):
        cc = RateController(mss=MSS)
        before = cc.window()
        cc.on_ack(Feedback(FB_ECN, 1.0), MSS, RTT, 0)
        assert cc.window() == before

    def test_loss_halves_rate(self):
        cc = RateController(mss=MSS)
        cc.on_ack(Feedback(FB_RATE, 10e9), MSS, RTT, 0)
        cc.on_loss(1)
        assert cc.rate_bps == pytest.approx(5e9)


class TestDelayController:
    def test_grows_below_target(self):
        cc = DelayController(mss=MSS, target_delay_ns=microseconds(10))
        start = cc.window()
        for i in range(50):
            cc.on_ack(Feedback(FB_DELAY, 1000.0), MSS, RTT, now=i * RTT)
        assert cc.window() > start

    def test_shrinks_above_target(self):
        cc = DelayController(mss=MSS, init_window_segments=50,
                             target_delay_ns=microseconds(5))
        start = cc.window()
        cc.on_ack(Feedback(FB_DELAY, float(microseconds(50))), MSS, RTT, RTT)
        assert cc.window() < start

    def test_bounded_decrease(self):
        cc = DelayController(mss=MSS, init_window_segments=50,
                             target_delay_ns=1, max_decrease=0.5)
        start = cc.window()
        cc.on_ack(Feedback(FB_DELAY, 1e12), MSS, RTT, RTT)
        assert cc.window() >= start * 0.5 - 1


class TestControllerFactory:
    def test_mapping(self):
        assert isinstance(controller_for_feedback(Feedback(FB_RATE, 1.0),
                                                  MSS, 10), RateController)
        assert isinstance(controller_for_feedback(Feedback(FB_DELAY, 1.0),
                                                  MSS, 10), DelayController)
        assert isinstance(controller_for_feedback(Feedback(FB_ECN, 1.0),
                                                  MSS, 10),
                          WindowEcnController)
        assert isinstance(controller_for_feedback(None, MSS, 10),
                          WindowEcnController)


class TestCcManager:
    def test_unknown_path_until_feedback(self):
        cc = PathletCcManager()
        assert cc.path_for(5) == (UNKNOWN_PATHLET,)

    def test_learns_path_from_feedback(self):
        cc = PathletCcManager()
        feedback = [(7, 0, Feedback(FB_ECN, 0.0)),
                    (8, 0, Feedback(FB_ECN, 0.0))]
        cc.on_ack(5, "default", feedback, MSS, RTT, 0)
        assert cc.path_for(5) == (7, 8)

    def test_charge_uncharge(self):
        cc = PathletCcManager()
        cc.charge((7, 8), "default", 1000)
        assert cc.inflight(7, "default") == 1000
        assert cc.inflight(8, "default") == 1000
        cc.uncharge((7, 8), "default", 1000)
        assert cc.inflight(7, "default") == 0

    def test_can_send_respects_min_window_across_path(self):
        cc = PathletCcManager()
        cc.learn_path(5, (7, 8))
        assert cc.can_send(5, "default", MSS)
        cc.charge((7,), "default", cc.window(7, "default"))
        # Pathlet 7 is full even though 8 is empty.
        assert not cc.can_send(5, "default", MSS)

    def test_separate_windows_per_pathlet(self):
        cc = PathletCcManager()
        hot = [(1, 0, Feedback(FB_ECN, 1.0))]
        cold = [(2, 0, Feedback(FB_ECN, 0.0))]
        for i in range(30):
            cc.on_ack(5, "default", hot, MSS, RTT, i * 2 * RTT)
            cc.on_ack(5, "default", cold, MSS, RTT, i * 2 * RTT)
        assert cc.window(2, "default") > cc.window(1, "default")

    def test_separate_windows_per_tc(self):
        cc = PathletCcManager()
        marked = [(1, 0, Feedback(FB_ECN, 1.0))]
        clean = [(1, 0, Feedback(FB_ECN, 0.0))]
        for i in range(30):
            cc.on_ack(5, "tenant1", clean, MSS, RTT, i * 2 * RTT)
            cc.on_ack(5, "tenant2", marked, MSS, RTT, i * 2 * RTT)
        assert cc.window(1, "tenant1") > cc.window(1, "tenant2")

    def test_congested_pathlets_reported(self):
        cc = PathletCcManager()
        hot = [(9, 0, Feedback(FB_ECN, 1.0))]
        for i in range(40):
            cc.on_ack(5, "default", hot, MSS, RTT, i * 2 * RTT)
        assert 9 in cc.congested_pathlets("default")
        assert cc.congested_pathlets("other") == []

    def test_loss_penalizes_whole_path(self):
        cc = PathletCcManager()
        cc.learn_path(5, (1, 2))
        before = (cc.window(1, "default"), cc.window(2, "default"))
        cc.on_loss((1, 2), "default", 0)
        assert cc.window(1, "default") < before[0]
        assert cc.window(2, "default") < before[1]
