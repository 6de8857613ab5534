"""In-network gradient aggregation (ATP-style, Section 4).

Workers send per-round gradient chunks as independent single-packet
messages; the switch sums chunks across workers and forwards one aggregated
message per (round, chunk) to the parameter server — an N-to-1 reduction in
both traffic and server work.  MTP makes this tractable because each chunk
message is self-describing and independently acknowledgeable.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.header import KIND_DATA, MtpHeader
from ..net.link import Port
from ..net.node import Switch
from ..net.packet import Packet
from ..sim.engine import Simulator
from .injection import inject_message, spoof_ack

__all__ = ["GradientChunk", "AggregatedChunk", "AggregationOffload"]

#: Most (round, chunk) slots open at once; beyond it new chunks pass
#: through unaggregated (bounded switch state).
SLOT_BUDGET = 1024
#: How many completed (round, chunk) keys are remembered, so that a late
#: retransmission is re-ACKed instead of opening a slot that never fills.
COMPLETED_MEMORY = 4096


class GradientChunk:
    """One worker's contribution for (round, chunk)."""

    __slots__ = ("round_id", "chunk_id", "worker_id", "values", "reply_port")

    def __init__(self, round_id: int, chunk_id: int, worker_id: int,
                 values: Sequence[float], reply_port: int = 0):
        self.round_id = round_id
        self.chunk_id = chunk_id
        self.worker_id = worker_id
        self.values = list(values)
        self.reply_port = reply_port

    def __repr__(self) -> str:
        return (f"<GradientChunk r{self.round_id} c{self.chunk_id} "
                f"w{self.worker_id}>")


class AggregatedChunk:
    """The switch's sum over all workers for (round, chunk)."""

    __slots__ = ("round_id", "chunk_id", "values", "n_workers")

    def __init__(self, round_id: int, chunk_id: int,
                 values: Sequence[float], n_workers: int):
        self.round_id = round_id
        self.chunk_id = chunk_id
        self.values = list(values)
        self.n_workers = n_workers

    def __repr__(self) -> str:
        return (f"<AggregatedChunk r{self.round_id} c{self.chunk_id} "
                f"x{self.n_workers}>")


class AggregationOffload:
    """Sums gradient chunk messages from ``n_workers`` before forwarding.

    Args:
        sim: simulator.
        service_port: parameter-server port to interpose on.
        n_workers: contributions needed per (round, chunk).
        ps_address / ps_port: where aggregated chunks are sent.
    """

    def __init__(self, sim: Simulator, service_port: int, n_workers: int,
                 ps_address: int, ps_port: int):
        if n_workers <= 0:
            raise ValueError("need at least one worker")
        self.sim = sim
        self.service_port = service_port
        self.n_workers = n_workers
        self.ps_address = ps_address
        self.ps_port = ps_port
        #: (round, chunk) -> {"values": [...], "workers": set()}
        self._slots: Dict[Tuple[int, int], Dict] = {}
        #: Recently completed (round, chunk) keys, oldest first.
        self._completed: "OrderedDict[Tuple[int, int], None]" = OrderedDict()
        self.chunks_absorbed = 0
        self.chunks_emitted = 0
        self.chunks_passed_through = 0

    def process(self, packet: Packet, switch: Switch,
                ingress: Port) -> Optional[List[Packet]]:
        """Absorb gradient chunks; emit the sum when all workers reported."""
        if packet.protocol != "mtp":
            return None
        header = packet.header
        if not isinstance(header, MtpHeader) or header.kind != KIND_DATA:
            return None
        if header.dst_port != self.service_port:
            return None
        chunk = header.payload
        if not isinstance(chunk, GradientChunk) or header.msg_len_pkts != 1:
            return None
        key = (chunk.round_id, chunk.chunk_id)
        if key in self._completed:
            # A late retransmission (its spoofed ACK was lost, or its RTO
            # fired first): re-ACK it; the sum has already gone out.
            spoof_ack(switch, packet, header)
            return []
        slot = self._slots.get(key)
        if slot is None:
            if len(self._slots) >= SLOT_BUDGET:
                self.chunks_passed_through += 1
                return None
            slot = {"values": list(chunk.values), "workers": set(),
                    "size": packet.size}
            self._slots[key] = slot
        elif chunk.worker_id not in slot["workers"]:
            slot["values"] = [a + b for a, b in
                              zip(slot["values"], chunk.values)]
        if chunk.worker_id in slot["workers"]:
            # Duplicate (retransmission): just re-ACK, don't double count.
            spoof_ack(switch, packet, header)
            return []
        slot["workers"].add(chunk.worker_id)
        self.chunks_absorbed += 1
        spoof_ack(switch, packet, header)
        if len(slot["workers"]) == self.n_workers:
            del self._slots[key]
            self._completed[key] = None
            if len(self._completed) > COMPLETED_MEMORY:
                self._completed.popitem(last=False)
            aggregated = AggregatedChunk(chunk.round_id, chunk.chunk_id,
                                         slot["values"], self.n_workers)
            inject_message(switch, src_address=packet.src,
                           dst_address=self.ps_address,
                           src_port=header.src_port, dst_port=self.ps_port,
                           size=header.msg_len_bytes, payload=aggregated,
                           tc=packet.entity)
            self.chunks_emitted += 1
        return []
