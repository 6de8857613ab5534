"""Property tests: queue disciplines conserve packets and enforce policy."""

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (ECT_CAPABLE, ECT_CE, ECT_NOT_CAPABLE, DropTailQueue,
                       DRRQueue, FairShareQueue, Packet, PriorityQueue,
                       RedQueue)

entities = st.sampled_from(["a", "b", "c"])
packet_sizes = st.integers(min_value=64, max_value=1500)

#: An operation stream: ("enq", entity, size) or ("deq",).
operations = st.lists(
    st.one_of(
        st.tuples(st.just("enq"), entities, packet_sizes),
        st.tuples(st.just("deq"))),
    min_size=1, max_size=200)


def apply_ops(queue, ops):
    """Run an op stream; returns (offered, dequeued_packets)."""
    offered = 0
    out = []
    for op in ops:
        if op[0] == "enq":
            _, entity, size = op
            offered += 1
            queue.enqueue(Packet(1, 2, size, "t", entity=entity, ecn=1), 0)
        else:
            packet = queue.dequeue(0)
            if packet is not None:
                out.append(packet)
    return offered, out


@given(operations)
@settings(max_examples=200)
def test_droptail_conservation(ops):
    queue = DropTailQueue(capacity=16, ecn_threshold=4)
    offered, out = apply_ops(queue, ops)
    assert queue.packets_enqueued + queue.packets_dropped == offered
    assert queue.packets_dequeued == len(out)
    assert queue.packets_enqueued - queue.packets_dequeued == len(queue)
    assert len(queue) <= 16


@given(operations)
@settings(max_examples=200)
def test_droptail_byte_accounting(ops):
    queue = DropTailQueue(capacity=16)
    apply_ops(queue, ops)
    drained = 0
    while True:
        packet = queue.dequeue(0)
        if packet is None:
            break
        drained += packet.size
    assert queue.bytes_queued == 0
    assert drained >= 0


@given(operations)
@settings(max_examples=200)
def test_drr_conservation(ops):
    queue = DRRQueue(per_class_capacity=8)
    offered, out = apply_ops(queue, ops)
    assert queue.packets_enqueued + queue.packets_dropped == offered
    assert queue.packets_enqueued - queue.packets_dequeued == len(queue)


@given(operations)
@settings(max_examples=200)
def test_drr_no_per_class_overflow(ops):
    queue = DRRQueue(per_class_capacity=8)
    apply_ops(queue, ops)
    for entity in ("a", "b", "c"):
        assert queue.queue_length(entity) <= 8


@given(operations)
@settings(max_examples=200)
def test_fair_share_conservation(ops):
    queue = FairShareQueue(capacity=16)
    offered, out = apply_ops(queue, ops)
    assert queue.packets_enqueued + queue.packets_dropped == offered
    assert queue.packets_enqueued - queue.packets_dequeued == len(queue)
    assert len(queue) <= 16


@given(operations)
@settings(max_examples=200)
def test_fair_share_entity_counts_consistent(ops):
    queue = FairShareQueue(capacity=16)
    apply_ops(queue, ops)
    total = sum(queue.queue_length(entity) for entity in ("a", "b", "c"))
    assert total == len(queue)
    # Drain fully: all per-entity accounting returns to zero.
    while queue.dequeue(0) is not None:
        pass
    assert queue.active_entities() == 0


@given(operations)
@settings(max_examples=200)
def test_fair_share_active_entities_exact(ops):
    queue = FairShareQueue(capacity=16)
    for op in ops:
        if op[0] == "enq":
            _, entity, size = op
            queue.enqueue(Packet(1, 2, size, "t", entity=entity, ecn=1), 0)
        else:
            queue.dequeue(0)
        resident = {packet.entity for packet in queue.resident()}
        assert queue.active_entities() == len(resident)


@given(st.lists(st.tuples(entities, packet_sizes), min_size=1,
                max_size=300))
@settings(max_examples=100)
def test_drr_service_is_fair_in_bytes(arrivals):
    """When several classes stay backlogged, served bytes stay balanced."""
    queue = DRRQueue(per_class_capacity=1000, quantum=1500)
    # Keep every class heavily backlogged.
    for entity in ("a", "b"):
        for _ in range(100):
            queue.enqueue(Packet(1, 2, 1000, "t", entity=entity), 0)
    served = {"a": 0, "b": 0}
    for _ in range(60):
        packet = queue.dequeue(0)
        served[packet.entity] += packet.size
    assert abs(served["a"] - served["b"]) <= 2 * 1500


class PriorityHeader:
    """Header stand-in carrying the message priority PriorityQueue reads."""

    def __init__(self, priority):
        self.priority = priority


#: name -> queue factory.  Small capacities and thresholds, so the traces
#: below fill, drop and mark.
DISCIPLINES = {
    "droptail": lambda: DropTailQueue(capacity=12),
    "droptail-ecn": lambda: DropTailQueue(capacity=12, ecn_threshold=4),
    "red": lambda: RedQueue(capacity=12, min_threshold=2, max_threshold=8,
                            max_probability=0.5),
    "drr": lambda: DRRQueue(per_class_capacity=5, quantum=700,
                            ecn_threshold=3),
    "fair_share": lambda: FairShareQueue(capacity=12, ecn_threshold=5),
    "priority": lambda: PriorityQueue(capacity=12, n_bands=4),
}


class DropTailModel:
    """Reference drop-tail FIFO: drop when full, mark ECN-capable packets
    that find ``ecn_threshold`` or more packets already queued."""

    def __init__(self, capacity, ecn_threshold):
        self.capacity = capacity
        self.ecn_threshold = ecn_threshold
        self.fifo = deque()
        self.dropped = 0
        self.marked = 0

    def offer(self, packet, ecn):
        if len(self.fifo) >= self.capacity:
            self.dropped += 1
            return False
        if (self.ecn_threshold is not None
                and len(self.fifo) >= self.ecn_threshold
                and ecn != ECT_NOT_CAPABLE):
            self.marked += 1
        self.fifo.append(packet)
        return True


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(DISCIPLINES))
def test_counters_conserve_packets_and_bytes(name, seed):
    """A seeded random enqueue/dequeue trace keeps every counter
    invariant after each step, and DropTail matches its reference model."""
    rng = random.Random(seed)
    queue = DISCIPLINES[name]()
    model = None
    if isinstance(queue, DropTailQueue):
        model = DropTailModel(queue.capacity, queue.ecn_threshold)
    offered = offered_bytes = dequeued_bytes = 0
    for _ in range(600):
        # Bursts of arrivals against a slower drain, so the queue fills.
        if rng.random() < 0.6:
            ecn = rng.choice((ECT_NOT_CAPABLE, ECT_CAPABLE, ECT_CE))
            packet = Packet(1, 2, rng.randint(40, 1500), "t",
                            header=PriorityHeader(rng.randrange(6)),
                            ecn=ecn, entity=rng.choice("abc"))
            offered += 1
            offered_bytes += packet.size
            accepted = queue.enqueue(packet, 0)
            if model is not None:
                assert accepted == model.offer(packet, ecn)
                if accepted and model.ecn_threshold is not None:
                    marked = len(model.fifo) > model.ecn_threshold
                    assert packet.ecn == (
                        ECT_CE if marked and ecn != ECT_NOT_CAPABLE
                        else ecn)
        else:
            packet = queue.dequeue(0)
            if packet is not None:
                dequeued_bytes += packet.size
            if model is not None:
                expected = model.fifo.popleft() if model.fifo else None
                assert packet is expected
        assert queue.packets_enqueued + queue.packets_dropped == offered
        assert queue.bytes_offered == offered_bytes
        assert (queue.bytes_queued + dequeued_bytes + queue.bytes_dropped
                == offered_bytes)
        assert (queue.packets_enqueued
                == queue.packets_dequeued + len(queue))
        assert queue.bytes_queued == sum(
            packet.size for packet in queue.resident())
    assert queue.packets_dropped > 0
    if model is not None:
        assert queue.packets_dropped == model.dropped
        assert queue.ecn_marked == model.marked
        if model.ecn_threshold is not None:
            assert model.marked > 0
