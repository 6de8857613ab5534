"""Pathlets: named network resources that emit congestion feedback.

The network groups its resources into *pathlets*, each with a unique id
(Section 3.1.3).  In this implementation a pathlet wraps an egress port:
a :class:`PathletAnnotator` hooks the port's transmit path and appends
``(path_id, tc, feedback)`` to every MTP data packet that traverses it.
The choice of :class:`FeedbackSource` per pathlet is what lets different
resources speak different congestion-control dialects (ECN, explicit rate,
delay) simultaneously.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Optional

from ..net.link import Port
from ..net.packet import Packet
from ..sim.engine import Simulator
from ..sim.units import SECOND, microseconds
from .feedback import FB_DELAY, FB_ECN, FB_QUEUE, FB_RATE, Feedback
from .header import KIND_DATA, MtpHeader

__all__ = ["PathletRegistry", "FeedbackSource", "EcnFeedbackSource",
           "RateFeedbackSource", "DelayFeedbackSource", "QueueFeedbackSource",
           "PathletAnnotator", "UNKNOWN_PATHLET"]

#: Reserved pathlet id for "no feedback received yet".
UNKNOWN_PATHLET = 0

_pathlet_ids = itertools.count(1)

#: Classifies a packet into a traffic class integer (tenant isolation).
TcClassifier = Callable[[Packet], int]


class FeedbackSource:
    """Computes the feedback TLV a pathlet attaches to passing packets."""

    def generate(self, port: Port, packet: Packet, now: int) -> Feedback:
        """Produce feedback reflecting this resource's congestion state."""
        raise NotImplementedError


class EcnFeedbackSource(FeedbackSource):
    """Binary congestion mark, DCTCP-style.

    Reports 1.0 when the packet was ECN-marked at enqueue (the queue's own
    threshold) or, as a fallback for unmarked queues, when the instantaneous
    queue exceeds ``threshold`` packets at transmit time.  With
    ``threshold=None`` only the packet's own mark counts (pure drop-tail
    queues then provide loss-only congestion signals).
    """

    def __init__(self, threshold: "int | None" = 20):
        self.threshold = threshold

    def generate(self, port: Port, packet: Packet, now: int) -> Feedback:
        congested = packet.marked or (
            self.threshold is not None and len(port.queue) > self.threshold)
        return Feedback(FB_ECN, 1.0 if congested else 0.0)


class RateFeedbackSource(FeedbackSource):
    """Explicit per-flow rate, RCP-style.

    Maintains the classic RCP rate update
    ``R += (T/d) * (a*(C - y) - b*q/d) / N_est`` evaluated every ``T``:
    spare capacity pushes the advertised rate up, standing queues push it
    down.  ``N_est = C/R`` (the RCP trick: no per-flow state needed).
    The gains are ``a = 0.5`` and ``b = 0.25``.
    """

    def __init__(self, sim: Simulator, port: Port,
                 update_interval_ns: int = microseconds(10),
                 avg_rtt_ns: int = microseconds(20)):
        self.sim = sim
        self.port = port
        self.update_interval_ns = update_interval_ns
        self.avg_rtt_ns = avg_rtt_ns
        self.capacity_bps = port.rate_bps
        self.rate_bps = float(port.rate_bps)  # optimistic start
        self._last_offered_bytes = port.queue.bytes_offered
        sim.schedule(update_interval_ns, self._update)

    def _update(self) -> None:
        interval = self.update_interval_ns
        arrived = self.port.queue.bytes_offered - self._last_offered_bytes
        self._last_offered_bytes = self.port.queue.bytes_offered
        incoming_bps = arrived * 8 * SECOND / interval
        queue_bits = self.port.queue.bytes_queued * 8
        spare = 0.5 * (self.capacity_bps - incoming_bps)
        drain = 0.25 * queue_bits * SECOND / self.avg_rtt_ns
        n_est = max(1.0, self.capacity_bps / max(self.rate_bps, 1.0))
        delta = (interval / self.avg_rtt_ns) * (spare - drain) / n_est
        self.rate_bps = min(float(self.capacity_bps),
                            max(self.capacity_bps * 1e-4,
                                self.rate_bps + delta))
        self.sim.schedule(interval, self._update)

    def generate(self, port: Port, packet: Packet, now: int) -> Feedback:
        return Feedback(FB_RATE, self.rate_bps)


class DelayFeedbackSource(FeedbackSource):
    """Queueing-delay feedback, Swift-style: the drain time of this queue."""

    def generate(self, port: Port, packet: Packet, now: int) -> Feedback:
        delay_ns = port.queue.bytes_queued * 8 * SECOND / port.rate_bps
        return Feedback(FB_DELAY, delay_ns)


class QueueFeedbackSource(FeedbackSource):
    """Raw queue occupancy in packets (for telemetry-driven policies)."""

    def generate(self, port: Port, packet: Packet, now: int) -> Feedback:
        return Feedback(FB_QUEUE, float(len(port.queue)))


class SelectiveFeedbackSource(FeedbackSource):
    """Header-overhead mitigation from Section 4: selective feedback.

    Wraps another source and suppresses (returns ``None`` for) entries that
    carry no information — uncongested samples — except for a periodic
    keep-alive so the end-host still learns the path.  Cuts per-packet
    header growth to O(congested pathlets) instead of O(path length).
    """

    def __init__(self, inner: FeedbackSource,
                 keepalive_interval_ns: int = microseconds(100)):
        self.inner = inner
        self.keepalive_interval_ns = keepalive_interval_ns
        self._last_emitted = -(10 ** 18)
        self.suppressed = 0

    def generate(self, port: Port, packet: Packet,
                 now: int) -> "Feedback | None":
        feedback = self.inner.generate(port, packet, now)
        interesting = feedback.value != 0.0
        due = now - self._last_emitted >= self.keepalive_interval_ns
        if interesting or due:
            self._last_emitted = now
            return feedback
        self.suppressed += 1
        return None


class PathletAnnotator:
    """Binds a pathlet id and feedback source to a port's transmit path."""

    def __init__(self, sim: Simulator, port: Port, pathlet_id: int,
                 source: FeedbackSource,
                 tc_classifier: Optional[TcClassifier] = None):
        self.sim = sim
        self.port = port
        self.pathlet_id = pathlet_id
        self.source = source
        self.tc_classifier = tc_classifier or (lambda packet: 0)
        if port.on_transmit is not None:
            raise ValueError(f"port {port.name} already has a transmit hook")
        port.on_transmit = self._on_transmit
        self.packets_annotated = 0

    def _on_transmit(self, packet: Packet) -> None:
        if packet.protocol != "mtp":
            return
        header: MtpHeader = packet.header
        if header.kind != KIND_DATA:
            return
        tc = self.tc_classifier(packet)
        feedback = self.source.generate(self.port, packet, self.sim.now)
        if feedback is None:
            return  # selectively suppressed (Section 4 overhead reduction)
        header.path_feedback.append((self.pathlet_id, tc, feedback))
        self.packets_annotated += 1


class PathletRegistry:
    """Allocates pathlet ids and remembers which port carries which pathlet.

    Switches consult the registry to honour ``path_exclude`` lists: a port
    whose pathlet the sender excluded is skipped when alternatives exist.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._by_port: Dict[Port, int] = {}
        self._annotators: Dict[int, list] = {}

    def register(self, port: Port, source: FeedbackSource,
                 tc_classifier: Optional[TcClassifier] = None,
                 pathlet_id: Optional[int] = None) -> int:
        """Make ``port`` a pathlet with the given feedback source.

        Passing an existing ``pathlet_id`` groups several resources into one
        pathlet — "representing the entire network as a single pathlet
        mimics TCP" (Section 3.1.3) is the coarsest such grouping.
        """
        if port in self._by_port:
            raise ValueError(f"port {port.name} is already a pathlet")
        path_id = pathlet_id if pathlet_id is not None else next(_pathlet_ids)
        annotator = PathletAnnotator(self.sim, port, path_id, source,
                                     tc_classifier)
        self._by_port[port] = path_id
        self._annotators.setdefault(path_id, []).append(annotator)
        return path_id

    def pathlet_of(self, port: Port) -> int:
        """Pathlet id of ``port`` (:data:`UNKNOWN_PATHLET` if unregistered)."""
        return self._by_port.get(port, UNKNOWN_PATHLET)

    def annotators(self, pathlet_id: int) -> list:
        """The annotators serving ``pathlet_id`` (one per grouped port)."""
        return self._annotators[pathlet_id]

    def __len__(self) -> int:
        return len(self._annotators)
