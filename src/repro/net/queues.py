"""Queue disciplines for switch and host egress ports.

Three disciplines cover the paper's experiments:

* :class:`DropTailQueue` — FIFO with a packet-count capacity and optional
  DCTCP-style instantaneous ECN marking threshold.  Used everywhere as the
  default, and (with marking) for the DCTCP baselines.
* :class:`DRRQueue` — deficit-round-robin over per-entity sub-queues.  The
  "separate queues per tenant" system in the Figure-7 isolation experiment.
* :class:`FairShareQueue` — a *single* FIFO plus per-entity ingress
  accounting that marks/drops traffic from entities exceeding their fair
  share.  This is the MTP-enabled shared queue of Figure 7: policy
  enforcement without separate queues.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, Iterator, Optional

from .packet import ECT_CE, Packet

__all__ = ["QueueDiscipline", "DropTailQueue", "DRRQueue", "FairShareQueue",
           "PriorityQueue", "RedQueue"]


class QueueDiscipline:
    """Interface and shared bookkeeping for egress queues.

    Subclasses implement :meth:`_admit` and :meth:`_next`; the public
    :meth:`enqueue` / :meth:`dequeue` wrappers keep drop/byte counters
    consistent so monitors can rely on the conservation invariants
    ``offered == packets_enqueued + packets_dropped`` and
    ``packets_enqueued == packets_dequeued + len(queue)``.  A discipline
    on the per-packet path may instead override both wrappers whole, as
    :class:`DropTailQueue` does, if it keeps the same counters.  Ports
    rely on the second invariant: they test for a waiting packet with
    ``packets_enqueued != packets_dequeued``.

    Every discipline must also implement :meth:`resident` and
    ``__len__``: the packet-conservation sanitizer enumerates each
    queue's packets and raises on one that cannot.
    """

    def __init__(self) -> None:
        self.bytes_queued = 0
        self.packets_enqueued = 0
        self.packets_dequeued = 0
        self.packets_dropped = 0
        self.bytes_dropped = 0
        #: Cumulative bytes *offered* to the queue (admitted + dropped) —
        #: the arrival rate RCP-style feedback sources need.
        self.bytes_offered = 0
        self.ecn_marked = 0

    def enqueue(self, packet: Packet, now: int) -> bool:
        """Offer ``packet`` to the queue; returns False when it was dropped."""
        self.bytes_offered += packet.size
        if self._admit(packet, now):
            self.packets_enqueued += 1
            self.bytes_queued += packet.size
            return True
        self.packets_dropped += 1
        self.bytes_dropped += packet.size
        return False

    def dequeue(self, now: int) -> Optional[Packet]:
        """Remove and return the next packet, or None when empty."""
        packet = self._next(now)
        if packet is not None:
            self.packets_dequeued += 1
            self.bytes_queued -= packet.size
        return packet

    def _admit(self, packet: Packet, now: int) -> bool:
        raise NotImplementedError

    def _next(self, now: int) -> Optional[Packet]:
        raise NotImplementedError

    def resident(self) -> Iterator[Packet]:
        """Iterate the packets currently held, in deterministic order.

        Required: the packet-conservation sanitizer
        (:mod:`repro.analysis.sanitize`) uses it to tell "still queued"
        from "leaked".
        """
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} len={len(self)} "
                f"bytes={self.bytes_queued} drops={self.packets_dropped}>")


class DropTailQueue(QueueDiscipline):
    """FIFO with packet-count capacity and optional ECN marking.

    Marking follows DCTCP: a packet is marked at enqueue time when the
    *instantaneous* queue length (including the new packet) exceeds
    ``ecn_threshold`` packets.

    Almost every port of the paper's topologies runs one, so
    :meth:`enqueue` and :meth:`dequeue` are written out in one frame each
    instead of going through ``_admit`` / ``_next``; the counters are the
    base class's.
    """

    def __init__(self, capacity: int, ecn_threshold: Optional[int] = None):
        super().__init__()
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if ecn_threshold is not None and ecn_threshold < 0:
            raise ValueError("ecn_threshold must be non-negative")
        self.capacity = capacity
        self.ecn_threshold = ecn_threshold
        self._fifo: Deque[Packet] = deque()

    def enqueue(self, packet: Packet, now: int) -> bool:
        size = packet.size
        self.bytes_offered += size
        fifo = self._fifo
        depth = len(fifo)
        if depth >= self.capacity:
            self.packets_dropped += 1
            self.bytes_dropped += size
            return False
        threshold = self.ecn_threshold
        # ``depth + 1 > threshold``: the new packet counts; only
        # ECN-capable packets (a non-zero codepoint) are marked.
        if threshold is not None and depth >= threshold and packet.ecn:
            packet.ecn = ECT_CE
            self.ecn_marked += 1
        fifo.append(packet)
        self.packets_enqueued += 1
        self.bytes_queued += size
        return True

    def dequeue(self, now: int) -> Optional[Packet]:
        fifo = self._fifo
        if not fifo:
            return None
        packet = fifo.popleft()
        self.packets_dequeued += 1
        self.bytes_queued -= packet.size
        return packet

    def resident(self) -> Iterator[Packet]:
        return iter(self._fifo)

    def __len__(self) -> int:
        return len(self._fifo)


class RedQueue(QueueDiscipline):
    """Random Early Detection with ECN support (Floyd & Jacobson).

    Maintains an EWMA of the queue length; between ``min_threshold`` and
    ``max_threshold`` packets are marked (ECN-capable) or dropped with a
    probability rising linearly to ``max_probability``; above
    ``max_threshold`` everything is marked/dropped.  DCTCP's step marking
    is the degenerate RED with min = max; this is the classic smooth
    variant for gentler AQM experiments.
    """

    def __init__(self, capacity: int, min_threshold: int,
                 max_threshold: int, max_probability: float = 0.1,
                 weight: float = 0.2):
        super().__init__()
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 < min_threshold <= max_threshold <= capacity:
            raise ValueError("need 0 < min <= max <= capacity")
        if not 0 < max_probability <= 1:
            raise ValueError("max_probability must be in (0, 1]")
        if not 0 < weight <= 1:
            raise ValueError("weight must be in (0, 1]")
        self.capacity = capacity
        self.min_threshold = min_threshold
        self.max_threshold = max_threshold
        self.max_probability = max_probability
        self.weight = weight
        #: Explicitly seeded: RED marking must replay identically.
        self.rng = random.Random(0)
        self.avg_queue = 0.0
        self._fifo: Deque[Packet] = deque()
        self.red_dropped = 0

    def _admit(self, packet: Packet, now: int) -> bool:
        if len(self._fifo) >= self.capacity:
            return False
        self.avg_queue = ((1 - self.weight) * self.avg_queue
                          + self.weight * len(self._fifo))
        if self.avg_queue >= self.max_threshold:
            congestion = True
        elif self.avg_queue > self.min_threshold:
            span = self.max_threshold - self.min_threshold
            probability = (self.max_probability
                           * (self.avg_queue - self.min_threshold) / span)
            congestion = self.rng.random() < probability
        else:
            congestion = False
        if congestion:
            if packet.ecn:
                packet.mark_ce()
                self.ecn_marked += 1
            else:
                self.red_dropped += 1
                return False
        self._fifo.append(packet)
        return True

    def _next(self, now: int) -> Optional[Packet]:
        return self._fifo.popleft() if self._fifo else None

    def resident(self) -> Iterator[Packet]:
        return iter(self._fifo)

    def __len__(self) -> int:
        return len(self._fifo)


class DRRQueue(QueueDiscipline):
    """Deficit round robin across per-entity sub-queues.

    Each entity gets its own FIFO of ``per_class_capacity`` packets and an
    equal quantum, so long-run service is equal across entities regardless
    of how many packets each offers ("separate queues" in Figure 7).
    """

    def __init__(self, per_class_capacity: int, quantum: int = 1500,
                 ecn_threshold: Optional[int] = None):
        super().__init__()
        if per_class_capacity <= 0:
            raise ValueError("per_class_capacity must be positive")
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.per_class_capacity = per_class_capacity
        self.quantum = quantum
        self.ecn_threshold = ecn_threshold
        self._classes: Dict[str, Deque[Packet]] = {}
        self._deficits: Dict[str, int] = {}
        self._active: Deque[str] = deque()
        self._fresh_turn = True
        self._total = 0

    def _admit(self, packet: Packet, now: int) -> bool:
        fifo = self._classes.get(packet.entity)
        if fifo is None:
            fifo = deque()
            self._classes[packet.entity] = fifo
            self._deficits[packet.entity] = 0
        if len(fifo) >= self.per_class_capacity:
            return False
        if (self.ecn_threshold is not None
                and len(fifo) + 1 > self.ecn_threshold and packet.ecn):
            packet.mark_ce()
            self.ecn_marked += 1
        if not fifo:
            self._active.append(packet.entity)
        fifo.append(packet)
        self._total += 1
        return True

    def _next(self, now: int) -> Optional[Packet]:
        if self._total == 0:
            return None
        # Standard DRR: the head-of-rotation class receives one quantum per
        # turn and sends packets while its deficit covers the head packet;
        # otherwise the rotation advances.  Each rotation step adds a
        # quantum, so the loop terminates within
        # ceil(max_packet / quantum) * n_classes iterations.
        while True:
            entity = self._active[0]
            fifo = self._classes[entity]
            if self._fresh_turn:
                self._deficits[entity] += self.quantum
                self._fresh_turn = False
            if self._deficits[entity] >= fifo[0].size:
                packet = fifo.popleft()
                self._deficits[entity] -= packet.size
                self._total -= 1
                if not fifo:
                    self._active.popleft()
                    self._deficits[entity] = 0
                    self._fresh_turn = True
                return packet
            self._active.rotate(-1)
            self._fresh_turn = True

    def resident(self) -> Iterator[Packet]:
        # Dict iteration follows insertion order: deterministic.
        for fifo in self._classes.values():
            yield from fifo

    def __len__(self) -> int:
        return self._total

    def queue_length(self, entity: str) -> int:
        """Packets currently queued for ``entity``."""
        fifo = self._classes.get(entity)
        return len(fifo) if fifo else 0


class PriorityQueue(QueueDiscipline):
    """Strict-priority scheduling on the message priority field.

    Because every MTP packet announces its message's priority, a switch can
    schedule without per-flow state ("load-balancing and scheduling" in
    Section 2.2): lower priority values are served first; packets without a
    priority attribute (non-MTP traffic) get ``default_priority``.  Within
    a band, FIFO.  ``n_bands`` caps the number of distinct bands; priorities
    are clamped into range.
    """

    def __init__(self, capacity: int, n_bands: int = 8,
                 default_priority: Optional[int] = None):
        super().__init__()
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 < n_bands <= 64:
            raise ValueError("n_bands must be in (0, 64]")
        if default_priority is None:
            default_priority = n_bands // 2
        if not 0 <= default_priority < n_bands:
            raise ValueError("default_priority must be a valid band")
        self.capacity = capacity
        self.n_bands = n_bands
        self.default_priority = default_priority
        self._bands = [deque() for _ in range(n_bands)]
        self._total = 0

    def _band_of(self, packet: Packet) -> int:
        priority = getattr(packet.header, "priority", None)
        if priority is None:
            return self.default_priority
        return max(0, min(self.n_bands - 1, priority))

    def _admit(self, packet: Packet, now: int) -> bool:
        if self._total >= self.capacity:
            return False
        self._bands[self._band_of(packet)].append(packet)
        self._total += 1
        return True

    def _next(self, now: int) -> Optional[Packet]:
        for band in self._bands:
            if band:
                self._total -= 1
                return band.popleft()
        return None

    def resident(self) -> Iterator[Packet]:
        for band in self._bands:
            yield from band

    def __len__(self) -> int:
        return self._total

    def band_length(self, band: int) -> int:
        """Packets currently queued in one priority band."""
        return len(self._bands[band])


class FairShareQueue(QueueDiscipline):
    """Single shared FIFO with per-entity ingress fair-share enforcement.

    The queue keeps per-entity counts of *in-queue* packets.  A packet whose
    entity already occupies more than ``capacity / active_entities`` slots is
    ECN-marked (if capable) and, above ``burst_factor`` times the fair share,
    dropped.  End-hosts running per-TC congestion control back off on those
    marks, driving the link to an equal split without per-entity queues —
    the switch only stores one counter per active entity.
    """

    def __init__(self, capacity: int, ecn_threshold: Optional[int] = None,
                 burst_factor: float = 2.0):
        super().__init__()
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1.0")
        self.capacity = capacity
        self.ecn_threshold = ecn_threshold
        self.burst_factor = burst_factor
        self._fifo: Deque[Packet] = deque()
        self._per_entity: Dict[str, int] = {}

    def active_entities(self) -> int:
        """Entities with at least one packet currently queued.

        Exact because :meth:`_next` deletes an entity's count when it
        reaches zero.
        """
        return len(self._per_entity)

    def fair_share(self) -> float:
        """Per-entity fair share of the buffer, in packets."""
        active = max(1, self.active_entities())
        return self.capacity / active

    def _admit(self, packet: Packet, now: int) -> bool:
        if len(self._fifo) >= self.capacity:
            return False
        # Fair share computed as if this packet's entity were active.
        per_entity = self._per_entity
        occupancy = per_entity.get(packet.entity, 0)
        active = len(per_entity) + (1 if occupancy == 0 else 0)
        share = self.capacity / active
        if occupancy + 1 > share * self.burst_factor:
            return False
        over_share = occupancy + 1 > share
        over_ecn = (self.ecn_threshold is not None
                    and len(self._fifo) + 1 > self.ecn_threshold)
        if (over_share or over_ecn) and packet.ecn:
            packet.mark_ce()
            self.ecn_marked += 1
        self._fifo.append(packet)
        per_entity[packet.entity] = occupancy + 1
        return True

    def _next(self, now: int) -> Optional[Packet]:
        if not self._fifo:
            return None
        packet = self._fifo.popleft()
        per_entity = self._per_entity
        count = per_entity[packet.entity] - 1
        if count:
            per_entity[packet.entity] = count
        else:
            del per_entity[packet.entity]
        return packet

    def resident(self) -> Iterator[Packet]:
        return iter(self._fifo)

    def __len__(self) -> int:
        return len(self._fifo)

    def queue_length(self, entity: str) -> int:
        """Packets currently queued for ``entity``."""
        return self._per_entity.get(entity, 0)
