"""Path selection strategies for multipath switches.

The paper's experiments exercise four selection policies: ECMP flow hashing,
per-packet spraying, a periodically alternating first-hop (the "optical
switch" of Figure 5), and a message-aware least-loaded balancer (the
MTP-enabled load balancer of Figure 6, in :mod:`repro.offloads.lb`).
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Optional, Protocol, Sequence

from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .link import Port

__all__ = ["PortSelector", "EcmpSelector", "PacketSpraySelector",
           "AlternatingSelector", "FailoverSelector", "LeastQueuedSelector",
           "stable_hash"]


def stable_hash(value: object) -> int:
    """Deterministic, process-independent hash (crc32 of the repr)."""
    return zlib.crc32(repr(value).encode())


class PortSelector(Protocol):
    """Strategy choosing an egress port among equal-cost candidates."""

    def select(self, packet: Packet, candidates: Sequence["Port"],
               now: int) -> "Port":
        """Pick one of ``candidates`` for ``packet`` at virtual time ``now``."""


class EcmpSelector:
    """Classic ECMP: hash the flow label, pin the flow to one path.

    All packets of a flow take the same path (no reordering), but large
    flows can collide on one path while others idle — the imbalance the
    Figure-6 experiment shows.
    """

    def select(self, packet: Packet, candidates: Sequence["Port"],
               now: int) -> "Port":
        return candidates[stable_hash(packet.flow_label) % len(candidates)]


class PacketSpraySelector:
    """Per-packet spraying: balance perfectly, reorder freely.

    Packets take the candidates in round-robin order.
    """

    def __init__(self) -> None:
        self._counter = 0

    def select(self, packet: Packet, candidates: Sequence["Port"],
               now: int) -> "Port":
        port = candidates[self._counter % len(candidates)]
        self._counter += 1
        return port


class AlternatingSelector:
    """Rotate through candidate ports on a fixed period.

    Models the optical/reconfigurable first-hop switch of the Figure-5
    experiment: *all* traffic uses candidate ``(now // period) % n``, so the
    path in use flips every ``period_ns`` regardless of flows.
    """

    def __init__(self, period_ns: int):
        if period_ns <= 0:
            raise ValueError("period must be positive")
        self.period_ns = period_ns

    def active_index(self, now: int, n_candidates: int) -> int:
        """Index of the path in use at virtual time ``now``."""
        return (now // self.period_ns) % n_candidates

    def select(self, packet: Packet, candidates: Sequence["Port"],
               now: int) -> "Port":
        return candidates[self.active_index(now, len(candidates))]


class FailoverSelector:
    """Primary/backup selection with a loss-of-light detection delay.

    Models a switch-local fast-reroute agent: candidate ``0`` is the
    primary path and carries all traffic while its port is up.  When the
    primary's carrier drops, the selector keeps steering packets at it
    (blackholing them) for ``detection_delay_ns`` — the time the control
    plane needs to notice loss of light and rewrite its table — then
    fails over to the first live backup.  A returning primary is
    re-adopted on the next packet (carrier state is authoritative).

    Deterministic: the decision depends only on port carrier state and
    virtual time; no wall clock, no RNG.  The failure/recovery
    experiments (``fig8``) use it on both the TCP and the MTP run, so the
    goodput contrast is purely transport-level.
    """

    def __init__(self, detection_delay_ns: int = 0):
        if detection_delay_ns < 0:
            raise ValueError("detection delay must be >= 0")
        self.detection_delay_ns = detection_delay_ns
        #: Virtual time the primary was first seen down (None while up).
        self._down_since: Optional[int] = None
        self._failed_over = False
        #: How many distinct outages triggered a failover (for reports).
        self.failovers = 0

    def select(self, packet: Packet, candidates: Sequence["Port"],
               now: int) -> "Port":
        primary = candidates[0]
        if primary.up:
            self._down_since = None
            self._failed_over = False
            return primary
        if self._down_since is None:
            self._down_since = now
        if now - self._down_since < self.detection_delay_ns:
            # Outage not yet detected: traffic still blackholes into the
            # dead port (dropped there with reason "link_down").
            return primary
        for port in candidates[1:]:
            if port.up:
                if not self._failed_over:
                    self._failed_over = True
                    self.failovers += 1
                return port
        return primary  # no live backup either; keep accounting the loss


class LeastQueuedSelector:
    """Send each packet to the port with the smallest queued backlog."""

    def select(self, packet: Packet, candidates: Sequence["Port"],
               now: int) -> "Port":
        return min(candidates, key=lambda port: port.queue.bytes_queued)
