"""Per-entity isolation policies (Figure 7).

Three ways to share one bottleneck between tenants:

* ``shared``    — one drop-tail/ECN FIFO; whoever sends more flows/messages
  wins (TCP's per-flow fairness failure mode).
* ``separate``  — per-tenant DRR queues; fair but costs one queue per tenant.
* ``fair_share``— MTP's answer: a single shared queue plus per-entity
  ingress accounting (:class:`~repro.net.queues.FairShareQueue`) that marks
  or drops over-share traffic, letting per-TC congestion control at the
  end-hosts converge to an equal split with O(entities) switch state.

This module packages those options as queue factories plus the TC
classifier end-hosts and switches share.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..net.packet import Packet
from ..net.queues import (DropTailQueue, DRRQueue, FairShareQueue,
                          QueueDiscipline)

__all__ = ["TrafficClassMap", "isolation_queue_factory", "ISOLATION_MODES"]

ISOLATION_MODES = ("shared", "separate", "fair_share")


class TrafficClassMap:
    """Maps entity labels (tenants) to small integer traffic classes.

    Used by pathlet annotators so that feedback is reported per
    ``(pathlet, TC)`` and by policy queues that need an entity ordinal.
    Unknown entities are assigned the next free class on first sight.
    """

    def __init__(self, assignments: Optional[Dict[str, int]] = None):
        self._classes: Dict[str, int] = dict(assignments or {})

    def classify(self, packet: Packet) -> int:
        """Traffic class of a packet's entity."""
        return self.tc_of(packet.entity)

    def tc_of(self, entity: str) -> int:
        """Traffic class of an entity label, assigning lazily."""
        tc = self._classes.get(entity)
        if tc is None:
            tc = len(self._classes)
            self._classes[entity] = tc
        return tc


def isolation_queue_factory(mode: str, capacity: int,
                            ecn_threshold: Optional[int] = None
                            ) -> Callable[[], QueueDiscipline]:
    """Queue factory implementing one of the Figure-7 systems.

    Args:
        mode: "shared", "separate", or "fair_share".
        capacity: buffer size in packets (per class for "separate").
        ecn_threshold: DCTCP-style marking threshold, if any.
    """
    if mode == "shared":
        return lambda: DropTailQueue(capacity, ecn_threshold)
    if mode == "separate":
        return lambda: DRRQueue(per_class_capacity=capacity,
                                ecn_threshold=ecn_threshold)
    if mode == "fair_share":
        return lambda: FairShareQueue(capacity, ecn_threshold)
    raise ValueError(f"unknown isolation mode {mode!r}; "
                     f"expected one of {ISOLATION_MODES}")
