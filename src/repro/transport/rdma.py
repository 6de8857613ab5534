"""RDMA-like transports: RC, UC, and UD service modes (Section 2.4).

The paper devotes a subsection to why RDMA falls short for in-network
computing; these models make those limitations executable:

* **RC** (reliable connection) — packet-sequence-number transport that
  *mandates in-order delivery*: an out-of-order PSN is treated as a loss
  (the receiver discards it and NAKs), so go-back-N retransmission kicks
  in.  This is what "effectively disables the use of multiple paths"
  means: spraying a RC flow turns reordering into goodput collapse.
* **UC** (unreliable connection) — same in-order PSN rule, but no
  retransmission: any loss or reordering silently kills the rest of the
  current message.
* **UD** (unreliable datagram) — per-datagram delivery with no ordering or
  reliability; messages are limited to one MTU (the paper's point: the
  only mutation/reorder-friendly RDMA mode cannot carry real messages).

Congestion control is deliberately absent (RDMA relies on PFC/DCQCN,
which the Table-1 row scores as not meeting the multi-resource
requirement); senders emit at a configured rate.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple  # noqa: F401

from ..net.node import Host
from ..net.packet import DEFAULT_HEADER_BYTES, MTU, Packet
from ..sim.engine import Timer
from ..sim.units import microseconds, transmission_delay
from .base import TransportStack

__all__ = ["RdmaStack", "RcQueuePair", "UcQueuePair", "UdQueuePair",
           "RDMA_MAX_UD_PAYLOAD"]

#: A UD message must fit in one packet.
RDMA_MAX_UD_PAYLOAD = MTU - DEFAULT_HEADER_BYTES

#: An RC receiver ACKs every this many in-order packets (and at a
#: message's end).
RC_ACK_EVERY = 4
#: RC sender's retransmission timeout.
RC_RETRANSMIT_TIMEOUT_NS = microseconds(500)

_qp_numbers = itertools.count(1)


class RdmaHeader:
    """BTH-like header: queue pair number + packet sequence number."""

    __slots__ = ("dst_qp", "src_qp", "psn", "opcode", "msg_id", "pkt_num",
                 "msg_len_pkts", "payload_len", "ts")

    def __init__(self, dst_qp: int, src_qp: int, psn: int, opcode: str,
                 msg_id: int = 0, pkt_num: int = 0, msg_len_pkts: int = 1,
                 payload_len: int = 0, ts: int = 0):
        self.dst_qp = dst_qp
        self.src_qp = src_qp
        self.psn = psn
        self.opcode = opcode  # "data", "ack", "nak"
        self.msg_id = msg_id
        self.pkt_num = pkt_num
        self.msg_len_pkts = msg_len_pkts
        self.payload_len = payload_len
        self.ts = ts

    def __repr__(self) -> str:
        return (f"<RdmaHeader {self.opcode} qp={self.dst_qp} "
                f"psn={self.psn} msg={self.msg_id}>")


class RdmaStack(TransportStack):
    """Per-host RDMA device: queue pairs demultiplexed by QP number."""

    protocol_name = "rdma"

    def __init__(self, host: Host):
        super().__init__(host)
        self._queue_pairs: Dict[int, object] = {}

    def create_qp(self, mode: str, **options):
        """Create a queue pair: mode in {"rc", "uc", "ud"}."""
        classes = {"rc": RcQueuePair, "uc": UcQueuePair, "ud": UdQueuePair}
        if mode not in classes:
            raise ValueError(f"unknown RDMA mode {mode!r}")
        qp = classes[mode](self, next(_qp_numbers), **options)
        self._queue_pairs[qp.qp_number] = qp
        return qp

    def handle_packet(self, packet: Packet) -> None:
        header: RdmaHeader = packet.header
        qp = self._queue_pairs.get(header.dst_qp)
        if qp is not None:
            qp._handle(packet, header)


class _BaseQueuePair:
    """Shared rate-paced sender machinery (no congestion control)."""

    def __init__(self, stack: RdmaStack, qp_number: int,
                 rate_bps: int = 10 ** 10,
                 on_message: Optional[Callable] = None):
        self.stack = stack
        self.sim = stack.sim
        self.qp_number = qp_number
        self.rate_bps = rate_bps
        self.on_message = on_message or (lambda qp, src, size: None)
        self.remote_address: Optional[int] = None
        self.remote_qp: Optional[int] = None
        self._send_psn = 0
        self._msg_ids = itertools.count(1)
        # Small pacing jitter (deterministic per QP): real NICs are not
        # perfectly periodic, and without it a congested drop-tail queue
        # can phase-lock against the pacer and starve one PSN forever.
        # Seeded by the QP number, so runs replay identically.
        self._jitter = random.Random(qp_number)
        #: (psn_or_None, msg_id, pkt_num, n_pkts, size) — None means
        #: "allocate the next PSN at transmit time"; retransmissions carry
        #: their original PSN (as InfiniBand does).
        self._wire: deque = deque()
        self._pacing = False
        self.messages_sent = 0
        self.messages_delivered = 0
        self.packets_discarded = 0

    def connect(self, remote_address: int, remote_qp: int) -> None:
        """Associate this QP with its remote peer."""
        self.remote_address = remote_address
        self.remote_qp = remote_qp

    def send_message(self, size: int) -> int:
        """Post a send work request; returns the message id."""
        if size <= 0:
            raise ValueError("message size must be positive")
        if self.remote_address is None:
            raise RuntimeError("queue pair is not connected")
        msg_id = next(self._msg_ids)
        payload = MTU - DEFAULT_HEADER_BYTES
        n_pkts = -(-size // payload)
        remaining = size
        for pkt_num in range(n_pkts):
            chunk = min(payload, remaining)
            remaining -= chunk
            self._wire.append((None, msg_id, pkt_num, n_pkts, chunk))
        self.messages_sent += 1
        self._pump()
        return msg_id

    def _pump(self) -> None:
        if self._pacing or not self._wire:
            return
        self._pacing = True
        self._emit_next()

    def _emit_next(self) -> None:
        if not self._wire:
            self._pacing = False
            return
        psn, msg_id, pkt_num, n_pkts, chunk = self._wire.popleft()
        self._transmit_data(psn, msg_id, pkt_num, n_pkts, chunk)
        gap = transmission_delay(chunk + DEFAULT_HEADER_BYTES,
                                 self.rate_bps)
        gap = max(1, round(gap * self._jitter.uniform(0.95, 1.05)))
        self.sim.schedule(gap, self._emit_next)

    def _transmit_data(self, psn: Optional[int], msg_id: int, pkt_num: int,
                       n_pkts: int, chunk: int) -> None:
        if psn is None:
            psn = self._send_psn
            self._send_psn += 1
        header = RdmaHeader(self.remote_qp, self.qp_number, psn,
                            "data", msg_id=msg_id, pkt_num=pkt_num,
                            msg_len_pkts=n_pkts, payload_len=chunk,
                            ts=self.sim.now)
        packet = Packet(self.stack.host.address, self.remote_address,
                        DEFAULT_HEADER_BYTES + chunk, "rdma", header=header,
                        flow_label=(self.qp_number, self.remote_qp),
                        created_at=self.sim.now)
        self.stack.send_packet(packet)

    def _handle(self, packet: Packet, header: RdmaHeader) -> None:
        raise NotImplementedError


class UdQueuePair(_BaseQueuePair):
    """Unreliable datagram: single-packet messages, any order, no retx."""

    def send_message(self, size: int) -> int:
        if size > RDMA_MAX_UD_PAYLOAD:
            raise ValueError(
                f"UD messages are limited to {RDMA_MAX_UD_PAYLOAD} bytes "
                f"(one packet); got {size}")
        return super().send_message(size)

    def _handle(self, packet: Packet, header: RdmaHeader) -> None:
        if header.opcode != "data":
            return
        self.messages_delivered += 1
        self.on_message(self, packet.src, header.payload_len)


class UcQueuePair(_BaseQueuePair):
    """Unreliable connected: strict PSN order, silent discard on violation."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._expected_psn = 0
        self._partial: Dict[int, list] = {}  # msg_id -> [pkts, bytes]

    def _handle(self, packet: Packet, header: RdmaHeader) -> None:
        if header.opcode != "data":
            return
        if header.psn != self._expected_psn:
            # Out of order == broken: drop, resync to the next PSN, and the
            # current message is lost (Section 2.4).
            self.packets_discarded += 1
            self._expected_psn = header.psn + 1
            self._partial.pop(header.msg_id, None)
            return
        self._expected_psn += 1
        progress = self._partial.setdefault(header.msg_id, [0, 0])
        progress[0] += 1
        progress[1] += header.payload_len
        if progress[0] == header.msg_len_pkts:
            self._partial.pop(header.msg_id)
            self.messages_delivered += 1
            self.on_message(self, packet.src, progress[1])


class RcQueuePair(_BaseQueuePair):
    """Reliable connected: strict PSN order with NAK + go-back-N.

    An out-of-order arrival is *treated as loss*: the receiver discards it
    and NAKs the expected PSN; the sender rewinds and re-sends everything
    from there.  Correct on a single path; pathological under reordering.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Sender retransmission state: everything unacked is kept.
        self._unacked: "deque[Tuple[int, int, int, int, int]]" = deque()
        # entries: (psn, msg_id, pkt_num, n_pkts, chunk)
        self._retx_timer = Timer(self.sim, self._on_timeout)
        # Receiver state.
        self._expected_psn = 0
        self._partial: Dict[int, list] = {}  # msg_id -> [pkts, bytes]
        self._since_ack = 0
        self.go_back_n_events = 0
        self.retransmissions = 0

    # -- sender ----------------------------------------------------------

    def _transmit_data(self, psn: Optional[int], msg_id: int, pkt_num: int,
                       n_pkts: int, chunk: int) -> None:
        if psn is None:
            # First transmission: record it for possible go-back-N.  (A
            # retransmission is already in _unacked under its fixed PSN.)
            self._unacked.append((self._send_psn, msg_id, pkt_num, n_pkts,
                                  chunk))
        super()._transmit_data(psn, msg_id, pkt_num, n_pkts, chunk)
        if not self._retx_timer.running:
            self._retx_timer.restart(RC_RETRANSMIT_TIMEOUT_NS)

    def _rewind_to(self, psn: int) -> None:
        """Go-back-N: re-send every unacked packet from ``psn`` onward,
        with their original PSNs (InfiniBand retransmission semantics)."""
        requeue = [entry for entry in self._unacked if entry[0] >= psn]
        if not requeue:
            return
        self.go_back_n_events += 1
        # Drop any retransmission copies already queued (fixed-PSN wire
        # entries) so repeated NAKs do not multiply traffic.
        self._wire = deque(entry for entry in self._wire
                           if entry[0] is None)
        for entry_psn, msg_id, pkt_num, n_pkts, chunk in reversed(requeue):
            self._wire.appendleft((entry_psn, msg_id, pkt_num, n_pkts,
                                   chunk))
            self.retransmissions += 1
        self._pump()

    def _on_timeout(self) -> None:
        if self._unacked:
            self._rewind_to(self._unacked[0][0])
            self._retx_timer.restart(RC_RETRANSMIT_TIMEOUT_NS)

    # -- receiver ----------------------------------------------------------

    def _handle(self, packet: Packet, header: RdmaHeader) -> None:
        if header.opcode == "ack":
            self._handle_ack(header.psn)
            return
        if header.opcode == "nak":
            self._rewind_to(header.psn)
            return
        if header.psn < self._expected_psn:
            # Duplicate from an overlapping retransmission: re-ACK so the
            # sender advances past it (IB acks duplicate PSNs).
            self._send_control("ack", self._expected_psn, packet.src,
                               header.src_qp)
            return
        if header.psn > self._expected_psn:
            # Reordering or loss: discard and NAK the PSN we need.
            self.packets_discarded += 1
            self._send_control("nak", self._expected_psn, packet.src,
                               header.src_qp)
            return
        self._expected_psn += 1
        progress = self._partial.setdefault(header.msg_id, [0, 0])
        progress[0] += 1
        progress[1] += header.payload_len
        complete = progress[0] == header.msg_len_pkts
        if complete:
            self._partial.pop(header.msg_id)
            self.messages_delivered += 1
            self.on_message(self, packet.src, progress[1])
        self._since_ack += 1
        if self._since_ack >= RC_ACK_EVERY or complete:
            self._since_ack = 0
            self._send_control("ack", self._expected_psn, packet.src,
                               header.src_qp)

    def _handle_ack(self, psn: int) -> None:
        while self._unacked and self._unacked[0][0] < psn:
            self._unacked.popleft()
        if self._unacked:
            self._retx_timer.restart(RC_RETRANSMIT_TIMEOUT_NS)
        else:
            self._retx_timer.stop()

    def _send_control(self, opcode: str, psn: int, dst_address: int,
                      dst_qp: int) -> None:
        header = RdmaHeader(dst_qp, self.qp_number, psn, opcode,
                            ts=self.sim.now)
        packet = Packet(self.stack.host.address, dst_address, 64, "rdma",
                        header=header,
                        flow_label=(self.qp_number, dst_qp, opcode),
                        created_at=self.sim.now)
        self.stack.send_packet(packet)
