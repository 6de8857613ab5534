"""Fault injection: random loss, corruption, blackouts, ACK-kind drops.

Used by the failure-injection tests and by :mod:`repro.chaos` to verify
that transports recover from conditions the clean topologies never
produce: random in-network loss, payload corruption, bursty blackouts,
and loss of specific packet kinds (ACK loss is the classic nasty case).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import Callable, List, Optional, Tuple

from ..sim.engine import Simulator
from .link import Port
from .node import Switch
from .packet import Packet

__all__ = ["RandomDropProcessor", "DeterministicDropProcessor",
           "BlackoutProcessor", "CorruptionProcessor", "drop_acks_filter"]


def drop_acks_filter(packet: Packet) -> bool:
    """Match pure acknowledgement packets of any transport.

    Works for MTP (header ``kind`` equals :data:`~repro.core.header.KIND_ACK`)
    and TCP (no payload, ACK flag set); used to inject the ACK-loss
    failure mode.
    """
    header = packet.header
    kind = getattr(header, "kind", None)
    if kind is not None:
        # Local import: repro.core and repro.transport both import back
        # into repro.net at module load, so top-level imports of the
        # header constants would dead-lock package initialisation.  By
        # the time packets flow, both modules are fully loaded and this
        # is a sys.modules lookup.
        from ..core.header import KIND_ACK
        return bool(kind == KIND_ACK)
    payload_len = getattr(header, "payload_len", None)
    flags = getattr(header, "flags", 0)
    if payload_len is not None:
        from ..transport.tcp import FLAG_ACK
        return payload_len == 0 and bool(flags & FLAG_ACK)
    return False


class RandomDropProcessor:
    """Drops each matching packet independently with fixed probability."""

    def __init__(self, probability: float, rng: random.Random,
                 match: Optional[Callable[[Packet], bool]] = None):
        if not 0 <= probability <= 1:
            raise ValueError("probability must be in [0, 1]")
        self.probability = probability
        self.rng = rng
        self.match = match or (lambda packet: True)
        self.dropped = 0
        self.passed = 0

    def process(self, packet: Packet, switch: Switch,
                ingress: Port) -> Optional[List[Packet]]:
        if self.match(packet) and self.rng.random() < self.probability:
            self.dropped += 1
            return []
        self.passed += 1
        return None


class DeterministicDropProcessor:
    """Drops every ``n``-th matching packet (reproducible loss pattern)."""

    def __init__(self, every_nth: int,
                 match: Optional[Callable[[Packet], bool]] = None):
        if every_nth <= 0:
            raise ValueError("every_nth must be positive")
        self.every_nth = every_nth
        self.match = match or (lambda packet: True)
        self._count = 0
        self.dropped = 0

    def process(self, packet: Packet, switch: Switch,
                ingress: Port) -> Optional[List[Packet]]:
        if not self.match(packet):
            return None
        self._count += 1
        if self._count % self.every_nth == 0:
            self.dropped += 1
            return []
        return None


class CorruptionProcessor:
    """Damages packets' payloads with fixed probability.

    Corruption does not drop the packet here — the damaged packet keeps
    travelling and is discarded by the *receiver's* checksum check
    (``Host.receive``), exactly like bit rot on a real wire.  The
    ``active`` flag lets an orchestrator (:mod:`repro.chaos`) scope the
    fault to a time window without detaching the processor.
    """

    def __init__(self, probability: float, rng: random.Random):
        if not 0 <= probability <= 1:
            raise ValueError("probability must be in [0, 1]")
        self.probability = probability
        self.rng = rng
        self.active = True
        self.corrupted = 0

    def process(self, packet: Packet, switch: Switch,
                ingress: Port) -> Optional[List[Packet]]:
        if self.active and self.rng.random() < self.probability:
            packet.corrupted = True
            self.corrupted += 1
        return None


class BlackoutProcessor:
    """Drops everything during scheduled outage windows (link flaps).

    Windows are half-open ``[start_ns, end_ns)``.  Overlapping or
    adjacent windows are merged up front so membership is a single
    O(log windows) :func:`bisect.bisect_right` over the flattened edge
    array — parity of the insertion point tells inside from outside —
    instead of a linear scan per packet.
    """

    def __init__(self, sim: Simulator, outages: List):
        """``outages`` is a list of ``(start_ns, end_ns)`` windows."""
        for start, end in outages:
            if end <= start:
                raise ValueError(f"bad outage window ({start}, {end})")
        self.sim = sim
        merged: List[List[int]] = []
        for start, end in sorted(outages):
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        self.outages: List[Tuple[int, int]] = [
            (start, end) for start, end in merged]
        #: Flattened, strictly increasing window edges; an odd number of
        #: edges at or before ``now`` means ``now`` is inside a window.
        self._edges: List[int] = [
            edge for window in self.outages for edge in window]
        self.dropped = 0

    def in_outage(self, now: int) -> bool:
        """True while ``now`` falls inside any outage window."""
        return bisect_right(self._edges, now) % 2 == 1

    def process(self, packet: Packet, switch: Switch,
                ingress: Port) -> Optional[List[Packet]]:
        if self.in_outage(self.sim.now):
            self.dropped += 1
            return []
        return None
