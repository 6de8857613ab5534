"""The MTP sender's fresh-packet scheduler keeps its send order.

Three checks:

* pinned digests of every MTP data send in the Figure 5, 6 and 7 MTP
  systems, taken with the original lazy-pop scheduler (Figure 5's
  re-taken when MTP's timeout became go-back-N), and in two repair
  runs: NDP trimming's NACK repairs and fig8's compressed chaos
  timeline, whose link flap forces go-back-N timeouts;
* a differential test against :class:`LazyPopScheduler`, a model of that
  original scheduler, on random enqueue / abort / window-open sequences;
* a count of the window probes in the Figure 7 blob-mode run, which
  pins the probe that each ACK's closing drain no longer makes.
"""

import hashlib
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import MtpStack, PathletCcManager
from repro.core.endpoint import MtpEndpoint
from repro.experiments import (Fig5Config, Fig6Config, Fig7Config,
                               Fig8Config, extensions, run_fig5, run_fig6,
                               run_fig7, run_fig8)
from repro.net import Network
from repro.offloads import TrimmingQueue
from repro.sim import Simulator, microseconds, milliseconds

# -- pinned send-log digests -------------------------------------------


def _trimming_transfer(sim):
    """The NDP-trimming extension's 20 KB transfer, on ``sim``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(extensions, "Simulator", lambda: sim)
        return extensions._trimming_transfer(
            lambda: TrimmingQueue(capacity=8))


def _chaos_config():
    """The compressed fig8 fault timeline of ``test_replay.py``."""
    return Fig8Config(detection_delay_ns=microseconds(20),
                      sample_interval_ns=microseconds(25),
                      flap_down_ns=microseconds(150),
                      flap_up_ns=microseconds(300),
                      migrate_ns=microseconds(400),
                      corrupt_start_ns=microseconds(430),
                      corrupt_stop_ns=microseconds(480),
                      corrupt_probability=0.05,
                      duration_ns=microseconds(600))


#: name -> (driver, data sends, events executed, SHA-256 of the send log).
#: The send log is the repr of the list of
#: ``(time, port, msg_id, pkt_num, retransmit)`` of every data send.
PINNED = {
    "fig5_mtp": (
        lambda sim: run_fig5("mtp", Fig5Config(duration_ns=milliseconds(1)),
                             sim=sim),
        6117, 44781,
        "bf014c3275dc37e2fa2ed5bab0ae8b552667adaed40fae8b31fa362f83a3cefb"),
    "fig6_mtp_lb": (
        lambda sim: run_fig6("mtp_lb", Fig6Config(
            duration_ns=milliseconds(1.5)), sim=sim),
        4536, 35959,
        "93732007f305c7ab2cf4df6e9b1d4753438f698152a4e38e2d5ea94fcde593ea"),
    "fig7_fair_share": (
        lambda sim: run_fig7("fair_share", Fig7Config(
            duration_ns=milliseconds(1)), sim=sim),
        3658, 25507,
        "e4140d5d44769fbc2a97faa57d95ab9a43b78e6e8d78deb4be4843384c32eb0c"),
    # Two NACK repairs of trimmed packets.
    "extensions_trimming_nack": (
        _trimming_transfer, 16, 50,
        "44b3f7bb98b3b2482cdedf87a637b79cc040414466d2fe364c0173a211f2f9aa"),
    # Two go-back-N timeouts across the link flap, 65 retransmissions.
    "fig8_chaos_mtp": (
        lambda sim: run_fig8("mtp", _chaos_config(), sim=sim),
        1675, 11759,
        "4a5809508cfe373f8011cd13809a2eb95f6863d22d3371b182ceca35a0aabd37"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_send_log_digest_pinned(name, monkeypatch):
    driver, sends, events, digest = PINNED[name]
    log = []
    send_packet = MtpEndpoint._send_packet

    def logged(self, state, pkt_num, retransmit):
        sent = send_packet(self, state, pkt_num, retransmit)
        if sent:
            log.append((self.sim.now, self.port, state.message.msg_id,
                        pkt_num, retransmit))
        return sent

    monkeypatch.setattr(MtpEndpoint, "_send_packet", logged)
    sim = Simulator()
    driver(sim)
    assert (len(log), sim.events_executed) == (sends, events)
    assert hashlib.sha256(repr(log).encode()).hexdigest() == digest


def test_one_window_probe_saved_per_ack(monkeypatch):
    """Blob mode drains twice per ACK: in the completion callback's
    ``send_message`` and at the end of the ACK.  The second drain reuses
    the first one's blocked-route memo, so it does not probe the window
    the first just found full (a separate memo per drain made 13,002
    probes here, one more per ACK)."""
    calls = {"can_send": 0, "ack": 0}

    def counted(cls, name, key):
        original = getattr(cls, name)

        def wrapper(*args):
            calls[key] += 1
            return original(*args)
        monkeypatch.setattr(cls, name, wrapper)

    counted(PathletCcManager, "can_send", "can_send")
    counted(MtpEndpoint, "_handle_ack", "ack")
    sim = Simulator()
    run_fig7("fair_share", Fig7Config(duration_ns=milliseconds(1)), sim=sim)
    assert sim.events_executed == 25507
    assert (calls["can_send"], calls["ack"]) == (9472, 3530)


# -- differential test against the lazy-pop model ----------------------


class LazyPopScheduler:
    """The original fresh-packet scheduler, over per-route packet credits.

    Finished and aborted messages stay in their rotation until they reach
    its head, and a blocked rotation is skipped one message at a time.
    """

    def __init__(self, max_blocked_scan):
        self.max_blocked_scan = max_blocked_scan
        #: msg -> [route, packets, next_to_send]
        self.outgoing = {}
        self.ready = {}
        self.credit = {}
        self.log = []

    def send_message(self, msg, route, priority, packets):
        self.outgoing[msg] = [route, packets, 0]
        self.ready.setdefault(priority, deque()).append(msg)
        self.try_send()

    def abort_message(self, msg):
        if self.outgoing.pop(msg, None) is not None:
            self.try_send()

    def open_window(self, route, packets):
        self.credit[route] = self.credit.get(route, 0) + packets
        self.try_send()

    def try_send(self):
        blocked = set()
        blocked_scans = 0
        for priority in sorted(self.ready):
            rotation = self.ready[priority]
            blocked_here = 0
            while rotation and blocked_here < len(rotation) \
                    and blocked_scans < self.max_blocked_scan:
                msg = rotation[0]
                state = self.outgoing.get(msg)
                if state is None or state[1] == state[2]:
                    rotation.popleft()
                    continue
                route = state[0]
                if route not in blocked and self.credit.get(route, 0) > 0:
                    self.credit[route] -= 1
                    self.log.append((msg, state[2]))
                    state[2] += 1
                    rotation.rotate(-1)
                    blocked_here = 0
                else:
                    blocked.add(route)
                    rotation.rotate(-1)
                    blocked_here += 1
                    blocked_scans += 1
            if not rotation:
                del self.ready[priority]

    def live_rotations(self):
        """Each priority's rotation without finished or aborted messages."""
        live = {}
        for priority, rotation in self.ready.items():
            queued = [msg for msg in rotation if msg in self.outgoing
                      and self.outgoing[msg][1] > self.outgoing[msg][2]]
            if queued:
                live[priority] = queued
        return live


class CreditWindows:
    """Stands in for the pathlet CC: each route sends on packet credits."""

    def __init__(self):
        self.credit = {}

    def can_send(self, dst_address, tc, nbytes):
        return self.credit.get((dst_address, tc), 0) > 0

    def path_for(self, dst_address):
        return dst_address

    def charge(self, path, tc, nbytes):
        self.credit[(path, tc)] -= 1

    def uncharge(self, path, tc, nbytes):
        pass

    def congested_pathlets(self, tc):
        return ()

    def failed_pathlets(self, tc):
        return ()


DESTINATIONS = (101, 102, 103, 104)
CLASSES = ("gold", "bulk")


@st.composite
def operations(draw):
    """Enqueue / abort / window-open sequences over a few routes.

    Few routes, few priorities and small credits keep rotations short and
    mostly blocked, so both the ``len(rotation)`` and the
    ``max_blocked_scan`` bounds fire.
    """
    destinations = DESTINATIONS[:draw(st.integers(1, 4))]
    classes = CLASSES[:draw(st.integers(1, 2))]
    priorities = draw(st.integers(1, 3))
    routes = st.tuples(st.sampled_from(destinations),
                       st.sampled_from(classes))
    send = st.tuples(st.just("send"), routes,
                     st.integers(0, priorities - 1),
                     st.integers(1, 5 * 1460))  # 1-5 packets, short tails
    return draw(st.lists(st.one_of(
        send, send,
        st.tuples(st.just("abort"), st.integers(0, 60)),
        st.tuples(st.just("open"), routes, st.integers(1, 6)),
    ), max_size=60))


def endpoint_on_credits(max_blocked_scan):
    host = Network(Simulator()).add_host("a")
    endpoint = MtpStack(host).endpoint()
    endpoint.max_blocked_scan = max_blocked_scan
    endpoint.cc = CreditWindows()
    sent = []
    endpoint.stack.send_packet = lambda packet: sent.append(
        (packet.header.msg_id, packet.header.pkt_num))
    return endpoint, sent


@settings(max_examples=200, deadline=None)
@given(operations(), st.integers(1, 40))
# The scan budget, not the rotation length, bounds a blocked rotation's
# skips: C is at the head when the window opens.
@example([("send", (101, "gold"), 0, 1), ("send", (101, "gold"), 0, 1),
          ("send", (101, "gold"), 0, 1), ("open", (101, "gold"), 1)], 2)
# Skips of a blocked rotation use up the budget for priority 1.
@example([("open", (102, "gold"), 1), ("send", (101, "gold"), 0, 1),
          ("send", (101, "gold"), 0, 1), ("send", (102, "gold"), 1, 1)], 2)
# A last-packet send resets the sweep, so the blocked message behind it
# is skipped once more and the budget runs out before priority 1.
@example([("send", (101, "gold"), 0, 1), ("send", (102, "gold"), 0, 1),
          ("send", (102, "gold"), 1, 1), ("open", (102, "gold"), 2)], 2)
def test_scheduler_matches_lazy_pop_model(ops, max_blocked_scan):
    endpoint, sent = endpoint_on_credits(max_blocked_scan)
    model = LazyPopScheduler(max_blocked_scan)
    msg_ids = []
    for op in ops:
        if op[0] == "send":
            _, (dst, tc), priority, size = op
            state = endpoint.send_message(dst, 9, size, priority=priority,
                                          tc=tc)
            msg_ids.append(state.message.msg_id)
            model.send_message(len(msg_ids) - 1, (dst, tc), priority,
                               state.message.n_packets)
        elif op[0] == "abort" and msg_ids:
            msg = op[1] % len(msg_ids)
            endpoint.abort_message(msg_ids[msg])
            model.abort_message(msg)
        elif op[0] == "open":
            _, route, packets = op
            credit = endpoint.cc.credit
            credit[route] = credit.get(route, 0) + packets
            endpoint._try_send()
            model.open_window(route, packets)
    index = {msg_id: msg for msg, msg_id in enumerate(msg_ids)}
    assert [(index[msg_id], pkt) for msg_id, pkt in sent] == model.log
    rotations = {priority: [index[msg_id] for msg_id in rotation]
                 for priority, rotation in endpoint._ready.items()}
    assert rotations == model.live_rotations()
    for priority, rotation in endpoint._ready.items():
        counts = {}
        for msg_id in rotation:
            route = endpoint._outgoing[msg_id].route
            counts[route] = counts.get(route, 0) + 1
        assert endpoint._ready_routes[priority] == counts
    assert endpoint._ready_routes.keys() == endpoint._ready.keys()
