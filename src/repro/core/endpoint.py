"""MTP end-host: connectionless message transport over pathlet CC.

Messages are sent without connection establishment; every packet is
self-describing (message id, geometry, priority).  Acknowledgements are
per-packet SACKs that also echo the path feedback collected en route, which
feeds the :class:`~repro.core.cc.PathletCcManager`.  A timeout repairs
the whole in-flight window (go-back-N); NACKs (e.g. from NDP-style
trimming) trigger immediate repair of one packet.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Callable, Dict, Optional, Tuple

from ..net.node import Host
from ..net.packet import (DEFAULT_HEADER_BYTES, ECT_CAPABLE, PACKET_POOL,
                          Packet)
from ..sim.engine import Timer
from ..sim.units import microseconds
from .cc import PathletCcManager
from .feedback import FB_TRIM
from .header import KIND_ACK, KIND_DATA, MtpHeader
from .message import Message, ReceiveState, SendState
from ..transport.base import RtoEstimator, TransportStack

__all__ = ["MtpStack", "MtpEndpoint", "DeliveredMessage"]

#: Nominal wire size of a pure acknowledgement packet.
ACK_SIZE = 64

#: How many completed messages a receiver remembers for duplicate re-ACKs.
COMPLETED_MEMORY = 4096
#: Floor of the retransmission timeout (and a quarter of the RTO used
#: before the first RTT sample).
MIN_RTO_NS = microseconds(100)


class DeliveredMessage:
    """What the receiving application sees for one complete message."""

    __slots__ = ("src_address", "src_port", "msg_id", "size", "priority",
                 "payload", "first_seen", "completed_at")

    def __init__(self, src_address: int, src_port: int, msg_id: int,
                 size: int, priority: int, payload, first_seen: int,
                 completed_at: int):
        self.src_address = src_address
        self.src_port = src_port
        self.msg_id = msg_id
        self.size = size
        self.priority = priority
        self.payload = payload
        self.first_seen = first_seen
        self.completed_at = completed_at

    @property
    def latency_ns(self) -> int:
        """Time from first packet arrival to completion at the receiver."""
        return self.completed_at - self.first_seen

    def __repr__(self) -> str:
        return (f"<DeliveredMessage msg={self.msg_id} {self.size}B "
                f"from {self.src_address}:{self.src_port}>")


class MtpStack(TransportStack):
    """Per-host MTP: endpoints share one pathlet congestion manager.

    Congestion state is host-wide by design — flows (and endpoints) that use
    the same pathlet share its window (Section 3.1.3).
    """

    protocol_name = "mtp"

    def __init__(self, host: Host,
                 max_rto_ns: int = microseconds(100_000),
                 max_retries: int = 12):
        super().__init__(host)
        #: RFC 6298-style cap on the backed-off retransmission timeout.
        self.max_rto_ns = max_rto_ns
        #: Per-packet RTO retransmissions before the whole message is
        #: aborted and surfaced to the application via ``on_failed``.
        self.max_retries = max_retries
        self.cc = PathletCcManager()
        self._endpoints: Dict[int, MtpEndpoint] = {}
        self._next_port = 30_000

    def endpoint(self, port: Optional[int] = None,
                 on_message: Optional[Callable] = None,
                 tc: str = "default") -> "MtpEndpoint":
        """Create an endpoint bound to ``port`` (or an ephemeral one)."""
        if port is None:
            # Ephemeral ports skip any the caller bound explicitly.
            port = self._next_port + 1
            while port in self._endpoints:
                port += 1
            self._next_port = port
        elif port in self._endpoints:
            raise ValueError(f"MTP port {port} already bound")
        endpoint = MtpEndpoint(self, port, on_message, tc=tc)
        self._endpoints[port] = endpoint
        return endpoint

    def handle_packet(self, packet: Packet) -> None:
        header: MtpHeader = packet.header
        endpoint = self._endpoints.get(header.dst_port)
        if endpoint is None:
            return
        if header.kind == KIND_DATA:
            endpoint._handle_data(packet, header)
        else:
            endpoint._handle_ack(packet, header)
            # Control packets are terminal here and their shells came from
            # the pool (non-pool packets are a no-op); the header object is
            # never recycled, so feedback lists stay valid.
            PACKET_POOL.release(packet)


class MtpEndpoint:
    """One MTP port: sends and receives independent messages."""

    def __init__(self, stack: MtpStack, port: int,
                 on_message: Optional[Callable] = None,
                 tc: str = "default"):
        self.stack = stack
        self.sim = stack.sim
        self.port = port
        self.tc = tc
        self.on_message = on_message or (lambda endpoint, message: None)
        self.cc = stack.cc

        # Sender state.
        self._outgoing: Dict[int, SendState] = {}
        #: priority -> rotation of msg_ids with unsent packets.  Messages
        #: within a priority class are served round-robin, one packet per
        #: turn, so parallel messages interleave (processor sharing) rather
        #: than serializing behind the oldest elephant.  A message leaves
        #: its rotation with its last fresh packet (or when aborted).
        self._ready: Dict[int, deque] = {}
        #: priority -> {(dst, tc) route: messages of that rotation on it},
        #: so a round can tell when every queued route is window-blocked.
        self._ready_routes: Dict[int, Dict[Tuple[int, str], int]] = {}
        self._retx_queue: list = []  # (priority, msg_id, pkt_num)
        #: (dst, tc) routes the latest drain found window-blocked; only
        #: the drain that closes an ACK reuses it (see ``_handle_ack``).
        self._blocked: set = set()
        #: FIFO of (send_time, msg_id, pkt_num) for in-flight packets.
        #: Every push happens at ``sim.now``, so push order is time order
        #: and the first valid entry has the earliest send time.  Entries
        #: are validated lazily against the authoritative
        #: ``SendState.inflight`` when peeked, so the retransmission timer
        #: arms without rescanning every in-flight packet.
        self._send_times: deque = deque()
        #: How many window-blocked messages to skip past per send round
        #: before giving up (bounds the scheduler's per-event work).
        self.max_blocked_scan = 32
        self._rto_timer = Timer(self.sim, self._on_rto)
        #: RTT estimate and RTO.  Each barren RTO backs it off (up to
        #: ``stack.max_rto_ns``); any acknowledgement progress resets it.
        self.rtt = RtoEstimator(MIN_RTO_NS, stack.max_rto_ns)
        self.advertise_exclusions = False

        # Receiver state.
        self._incoming: Dict[Tuple[int, int], ReceiveState] = {}
        #: Keys of recently completed messages, oldest first (a FIFO of
        #: ``COMPLETED_MEMORY``); an ``OrderedDict`` drops its oldest in
        #: O(1), where a dict walks the slots deleted before it.
        self._completed: OrderedDict[Tuple[int, int], bool] = OrderedDict()

        # Stats.
        self.messages_sent = 0
        self.messages_completed = 0
        self.messages_failed = 0
        self.messages_delivered = 0
        self.bytes_delivered = 0
        self.data_packets_sent = 0
        self.retransmissions = 0
        self.nack_repairs = 0

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send_message(self, dst_address: int, dst_port: int, size: int,
                     priority: int = 0, payload=None,
                     on_complete: Optional[Callable] = None,
                     tc: Optional[str] = None,
                     deadline_ns: Optional[int] = None,
                     on_failed: Optional[Callable] = None) -> SendState:
        """Queue an independent message; returns its send-side state.

        ``on_complete(send_state)`` fires when every packet is acknowledged.
        Smaller ``priority`` values are served first.  With ``deadline_ns``
        set, a message not fully acknowledged within that budget is aborted
        and ``on_failed(send_state)`` fires instead — bounded-latency RPCs
        without caller-side timers.
        """
        if deadline_ns is not None and deadline_ns <= 0:
            raise ValueError("deadline must be positive")
        message = Message(size, priority,
                          tc if tc is not None else self.tc, payload)
        msg_id = message.msg_id
        state = SendState(message, dst_address, dst_port, on_complete,
                          self.sim.now, on_failed)
        self._outgoing[msg_id] = state
        rotation = self._ready.get(priority)
        if rotation is None:
            rotation = self._ready[priority] = deque()
            routes = self._ready_routes[priority] = {}
        else:
            routes = self._ready_routes[priority]
        rotation.append(msg_id)
        route = state.route
        routes[route] = routes.get(route, 0) + 1
        self.messages_sent += 1
        if deadline_ns is not None:
            self.sim.schedule(deadline_ns, self._check_deadline, msg_id)
        self._try_send()
        return state

    def abort_message(self, msg_id: int, reason: str = "aborted") -> bool:
        """Cancel an outstanding message; returns False if already done.

        In-flight packets are uncharged from their pathlets; the receiver
        simply never completes the message (its partial state ages out with
        the connectionless transport — there is no connection to reset).
        ``on_failed`` fires exactly once: the state is popped here, so a
        second abort (or a racing deadline) finds nothing to fail.
        """
        state = self._outgoing.pop(msg_id, None)
        if state is None:
            return False
        state.failed = True
        state.fail_reason = reason
        self.messages_failed += 1
        if state.unsent_packets():
            priority = state.message.priority
            self._ready[priority].remove(msg_id)  # O(n); aborts are rare
            self._unqueue_route(priority, state.route)
        for pkt_num in list(state.inflight):
            self._release(state, pkt_num)
        self._retx_queue = [entry for entry in self._retx_queue
                            if entry[1] != msg_id]
        self._arm_rto()
        if state.on_failed is not None:
            state.on_failed(state)
        self._try_send()
        return True

    def _check_deadline(self, msg_id: int) -> None:
        if msg_id in self._outgoing:
            self.abort_message(msg_id, reason="deadline")

    def _try_send(self, blocked: Optional[set] = None) -> None:
        # Retransmissions first: they already consumed window budget once
        # and repairing holes completes messages soonest.  ``blocked`` memos
        # (dst, tc) routes whose windows are full, so the scheduler does
        # not re-probe the same congested path per message; without one
        # the drain starts a fresh memo.  The RTO is armed once per drain
        # that sent something: every packet of a drain leaves at the same
        # instant, so the earliest deadline is the same after any of them.
        if blocked is None:
            blocked = self._blocked = set()
        sent = self.data_packets_sent
        self._drain_retransmissions(blocked)
        self._drain_fresh_packets(blocked)
        if self.data_packets_sent != sent:
            self._arm_rto()

    def _drain_retransmissions(self, blocked: set) -> None:
        if not self._retx_queue:
            return
        self._retx_queue.sort()
        remaining = []
        for priority, msg_id, pkt_num in self._retx_queue:
            state = self._outgoing.get(msg_id)
            if state is None or pkt_num in state.acked:
                continue  # resolved while queued
            if state.route not in blocked \
                    and self._send_packet(state, pkt_num, retransmit=True):
                continue
            blocked.add(state.route)
            remaining.append((priority, msg_id, pkt_num))
        self._retx_queue = remaining

    def _drain_fresh_packets(self, blocked: set) -> None:
        # Serve priority classes in ascending order; within a class, round
        # robin one packet per message so parallel messages share the path.
        # Window-blocked messages are skipped (bounded scan) — messages to
        # other destinations behind them still make progress.
        blocked_scans = 0
        max_scans = self.max_blocked_scan
        outgoing = self._outgoing
        ready = self._ready
        for priority in sorted(ready):
            rotation = ready[priority]
            routes = self._ready_routes[priority]
            blocked_here = 0
            # One full sweep is `len(rotation)` turns with no progress.
            while rotation and blocked_here < len(rotation) \
                    and blocked_scans < max_scans:
                if blocked and routes.keys() <= blocked:
                    # Every queued route is blocked: the rest of the scan
                    # could only skip, so take all its skips as one turn.
                    skips = min(len(rotation) - blocked_here,
                                max_scans - blocked_scans)
                    rotation.rotate(-skips)
                    blocked_scans += skips
                    break
                state = outgoing[rotation[0]]
                unsent = state.unsent_packets()
                if state.route not in blocked and self._send_packet(
                        state, state.next_to_send, retransmit=False):
                    state.next_to_send += 1
                    if unsent > 1:
                        rotation.rotate(-1)
                    else:
                        rotation.popleft()
                        self._unqueue_route(priority, state.route)
                    blocked_here = 0
                else:
                    blocked.add(state.route)
                    rotation.rotate(-1)
                    blocked_here += 1
                    blocked_scans += 1

    def _unqueue_route(self, priority: int, route: Tuple[int, str]) -> None:
        """A message on ``route`` left the ``priority`` rotation."""
        routes = self._ready_routes[priority]
        if routes[route] > 1:
            routes[route] -= 1
            return
        del routes[route]
        if not routes:
            del self._ready[priority]
            del self._ready_routes[priority]

    def _send_packet(self, state: SendState, pkt_num: int,
                     retransmit: bool) -> bool:
        """Send one packet if its window has room; the drain arms the RTO."""
        message = state.message
        tc = message.tc
        dst_address = state.dst_address
        pkt_len = message.packet_sizes[pkt_num]
        cc = self.cc
        if not cc.can_send(dst_address, tc, pkt_len):
            return False
        now = self.sim.now
        msg_id = message.msg_id
        header = MtpHeader(KIND_DATA, self.port, state.dst_port, msg_id,
                           message.priority, message.size,
                           message.n_packets, pkt_num,
                           message.packet_offset(pkt_num), pkt_len, now)
        exclude = header.path_exclude
        if self.advertise_exclusions:
            for pathlet_id in cc.congested_pathlets(tc):
                exclude.append((pathlet_id, 0))
        # Dead-pathlet failover: pathlets that ate several consecutive
        # RTOs are excluded unconditionally (not gated on the congestion
        # advertisement knob) so exclusion-honouring switches steer the
        # message off the failed resource within a bounded number of RTOs.
        for pathlet_id in cc.failed_pathlets(tc):
            if (pathlet_id, 0) not in exclude:
                exclude.append((pathlet_id, 0))
        header.payload = message.payload
        address = self.stack.host.address
        packet = Packet(address, dst_address, DEFAULT_HEADER_BYTES + pkt_len,
                        "mtp", header, ECT_CAPABLE, (address, msg_id), tc,
                        now)
        path = cc.path_for(dst_address)
        cc.charge(path, tc, pkt_len)
        state.inflight[pkt_num] = (now, retransmit, path)
        self._send_times.append((now, msg_id, pkt_num))
        if retransmit:
            state.retransmissions += 1
            self.retransmissions += 1
        self.data_packets_sent += 1
        self.stack.send_packet(packet)
        return True

    # ------------------------------------------------------------------
    # Receiving data
    # ------------------------------------------------------------------

    def _handle_data(self, packet: Packet, header: MtpHeader) -> None:
        for _, _, feedback in header.path_feedback:
            if feedback.type == FB_TRIM and feedback.value > 0:
                # NDP-style trim: the payload was cut in-network.  NACK
                # for an immediate repair, echoing the feedback so the
                # sender's controller treats the trim as a congestion mark.
                self.send_nack(packet.src, header.src_port, header.msg_id,
                               header.pkt_num,
                               feedback_path=header.path_feedback)
                return
        key = (packet.src, header.msg_id)
        if key in self._completed:
            self._send_ack(packet, header)  # duplicate of a finished message
            return
        now = self.sim.now
        if header.msg_len_pkts == 1:
            # A one-packet message (every message of blob mode) completes
            # on arrival: no partial state to build and tear down.
            if header.pkt_num:
                raise ValueError(
                    f"packet {header.pkt_num} outside message of 1")
            self._send_ack(packet, header)
            self._deliver(packet, header, header.msg_len_bytes,
                          header.priority, now)
            return
        state = self._incoming.get(key)
        if state is None:
            state = ReceiveState(packet.src, header.msg_id,
                                 header.msg_len_bytes, header.msg_len_pkts,
                                 header.priority, now)
            self._incoming[key] = state
        state.add_packet(header.pkt_num, header.pkt_len,
                         payload=header.payload)
        self._send_ack(packet, header)
        if state.complete:
            del self._incoming[key]
            self._deliver(packet, header, state.msg_len_bytes,
                          state.priority, state.first_seen)

    def _deliver(self, packet: Packet, header: MtpHeader, size: int,
                 priority: int, first_seen: int) -> None:
        """Hand a message whose last packet just arrived to the app."""
        self._remember_completed((packet.src, header.msg_id))
        self.messages_delivered += 1
        self.bytes_delivered += size
        self.on_message(self, DeliveredMessage(
            packet.src, header.src_port, header.msg_id, size, priority,
            header.payload, first_seen, self.sim.now))

    def _remember_completed(self, key: Tuple[int, int]) -> None:
        completed = self._completed
        completed[key] = True
        if len(completed) > COMPLETED_MEMORY:
            completed.popitem(last=False)

    def _send_ack(self, packet: Packet, header: MtpHeader) -> None:
        now = self.sim.now
        msg_id = header.msg_id
        ack = MtpHeader(KIND_ACK, self.port, header.src_port, msg_id,
                        0, 0, 0, 0, 0, 0, now, header.ts)
        ack.sack.append((msg_id, header.pkt_num))
        ack.ack_path_feedback = list(header.path_feedback)
        address = self.stack.host.address
        self.stack.send_packet(PACKET_POOL.acquire(
            address, packet.src, ACK_SIZE, "mtp", ack, ECT_CAPABLE,
            (address, msg_id, "ack"), packet.entity, now))

    def send_nack(self, dst_address: int, dst_port: int, msg_id: int,
                  pkt_num: int, feedback_path=None) -> None:
        """Ask the sender to repair one packet immediately (NDP-style)."""
        nack = MtpHeader(KIND_ACK, self.port, dst_port, msg_id,
                         ts=self.sim.now)
        nack.nack.append((msg_id, pkt_num))
        if feedback_path:
            nack.ack_path_feedback = list(feedback_path)
        packet = PACKET_POOL.acquire(
            self.stack.host.address, dst_address, ACK_SIZE,
            "mtp", header=nack, ecn=ECT_CAPABLE, created_at=self.sim.now)
        self.stack.send_packet(packet)

    # ------------------------------------------------------------------
    # Acknowledgement processing
    # ------------------------------------------------------------------

    def _handle_ack(self, packet: Packet, header: MtpHeader) -> None:
        # Every drain of this ACK shares one blocked-route memo: the one
        # a completion callback's ``send_message`` ran, then the closing
        # drain, which skips (and rotates past) the routes the callback's
        # drain found full instead of probing each again.  An entry that
        # releases or resizes a window clears the memo.  (A callback that
        # releases window on another endpoint of this host is not seen.)
        self._blocked.clear()
        now = self.sim.now
        rtt = self.rtt.sample(now, header.ts_echo)
        outgoing = self._outgoing
        for msg_id, pkt_num in header.sack:
            state = outgoing.get(msg_id)
            if state is None or not state.mark_acked(pkt_num):
                continue
            self._blocked.clear()
            # A late ACK for a packet an RTO or NACK already released
            # finds no record and releases nothing.
            record = self._release(state, pkt_num)
            # Forward progress: the network is delivering again, so the
            # exponential RTO backoff resets (RFC 6298 §5.7 analogue).
            self.rtt.backoff = 0
            state.retry_count.pop(pkt_num, None)
            message = state.message
            self.cc.on_ack(state.dst_address, message.tc,
                           header.ack_path_feedback,
                           message.packet_sizes[pkt_num],
                           None if record and record[1] else rtt, now)
            if len(state.acked) == message.n_packets:
                self._finish_message(state)
        for msg_id, pkt_num in header.nack:
            state = outgoing.get(msg_id)
            if state is None or pkt_num in state.acked:
                continue
            self._blocked.clear()
            self._release(state, pkt_num)
            self.nack_repairs += 1
            if header.ack_path_feedback:
                # Trims double as congestion marks for the pathlet CC.
                self.cc.on_ack(state.dst_address, state.message.tc,
                               header.ack_path_feedback, 0, None,
                               self.sim.now)
            entry = (state.message.priority, msg_id, pkt_num)
            if entry not in self._retx_queue:
                self._retx_queue.append(entry)
        self._arm_rto()
        self._try_send(self._blocked)

    def _release(self, state: SendState, pkt_num: int) -> Optional[tuple]:
        """Pop a packet's in-flight record and uncharge its path.

        Returns the record, or None (releasing nothing) when the packet
        is no longer in flight.
        """
        record = state.inflight.pop(pkt_num, None)
        if record is not None:
            self.cc.uncharge(record[2], state.message.tc,
                             state.message.packet_sizes[pkt_num])
        return record

    def _finish_message(self, state: SendState) -> None:
        state.completed_at = self.sim.now
        self.messages_completed += 1
        del self._outgoing[state.message.msg_id]
        if state.on_complete is not None:
            state.on_complete(state)

    # ------------------------------------------------------------------
    # Timeout-driven repair
    # ------------------------------------------------------------------

    def _earliest_deadline(self) -> Optional[int]:
        # Pop stale entries: the message finished, the packet was
        # acked/requeued, or it was retransmitted at a later time.
        send_times = self._send_times
        while send_times:
            send_time, msg_id, pkt_num = send_times[0]
            state = self._outgoing.get(msg_id)
            if state is not None:
                entry = state.inflight.get(pkt_num)
                if entry is not None and entry[0] == send_time:
                    return send_time + self.rtt.rto
            send_times.popleft()
        return None

    def _arm_rto(self) -> None:
        deadline = self._earliest_deadline()
        if deadline is None:
            if self._retx_queue:
                # Nothing in flight but repairs are window-blocked: keep
                # the timer alive so the queue is re-probed once per RTO
                # instead of stalling forever (the window only reopens on
                # events this timer itself must eventually trigger).
                self._rto_timer.restart(self.rtt.rto)
                return
            self._rto_timer.stop()
            return
        delay = max(0, deadline - self.sim.now)
        self._rto_timer.restart(delay)

    def _on_rto(self) -> None:
        deadline = self._earliest_deadline()
        if deadline is not None and self.sim.now >= deadline:
            self._expire_window()
        self._arm_rto()
        self._try_send()

    def _expire_window(self) -> None:
        """Go-back-N: a timeout presumes the whole in-flight window lost.

        Every in-flight packet is released once and queued for repair
        (RFC 6298 §5.4; RFC 5681 resets FlightSize after an RTO).  Each
        ``(path, tc)`` that had packets in flight takes one loss, so one
        timeout halves a window once and counts once towards pathlet
        failover, and the timer takes one backoff step.
        """
        now = self.sim.now
        losses: Dict[Tuple[Tuple[int, ...], str], None] = {}
        exhausted: list = []
        for state in list(self._outgoing.values()):
            if not state.inflight:
                continue
            # Penalize the path we are *currently* routed on: a packet may
            # have been charged to a pathlet the network has since
            # switched away from, and the congestion that killed it is on
            # the path in use now.
            losses[(self.cc.path_for(state.dst_address),
                    state.message.tc)] = None
            for pkt_num in list(state.inflight):
                self._release(state, pkt_num)
                retries = state.retry_count.get(pkt_num, 0) + 1
                state.retry_count[pkt_num] = retries
                if retries > self.stack.max_retries:
                    exhausted.append(state.message.msg_id)
                    break
                self._retx_queue.append(
                    (state.message.priority, state.message.msg_id, pkt_num))
        for path, tc in losses:
            self.cc.on_loss(path, tc, now)
        # Barren timeout: back the timer off exponentially so a dead path
        # does not trigger a per-min-RTO retransmission storm.
        self.rtt.backoff += 1
        for msg_id in exhausted:
            # Clean abort: state is popped, pathlet charges released, the
            # retransmission queue purged, and on_failed fires exactly once.
            self.abort_message(msg_id, reason="max_retries")

    # ------------------------------------------------------------------

    @property
    def outstanding_messages(self) -> int:
        """Messages accepted for sending but not yet fully acknowledged."""
        return len(self._outgoing)

    def __repr__(self) -> str:
        return (f"<MtpEndpoint port={self.port} "
                f"out={len(self._outgoing)} in={len(self._incoming)}>")
