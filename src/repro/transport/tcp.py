"""TCP: NewReno-style stream transport with a DCTCP variant.

This is the baseline the paper argues against: a byte-stream protocol with
cumulative ACKs, per-flow congestion state, and receive-window flow control.
The implementation covers what the experiments exercise:

* three-way handshake (connection-per-message cost, Figure 3),
* slow start / congestion avoidance / fast retransmit / RTO,
* receive-window flow control with window updates (proxy HOL, Figure 2),
* DCTCP: per-packet ECN echo and ``alpha``-scaled window reduction
  (Figures 5 and 7 baselines).

Payload content is not modelled — only byte counts move through the stream.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..net.node import Host
from ..net.packet import (DEFAULT_HEADER_BYTES, ECT_CAPABLE, ECT_CE,
                          ECT_NOT_CAPABLE, Packet)
from ..sim.engine import Timer
from ..sim.units import microseconds
from .base import ConnectionCallbacks, RtoEstimator, Runs, TransportStack

__all__ = ["TcpHeader", "TcpStack", "TcpConnection",
           "FLAG_SYN", "FLAG_ACK", "FLAG_FIN"]

FLAG_SYN = 0x1
FLAG_ACK = 0x2
FLAG_FIN = 0x4

#: Practically infinite receive window for "unlimited buffer" experiments.
UNLIMITED_WINDOW = 1 << 48
#: SACK blocks an ACK carries at most (RFC 2018 with timestamps).
MAX_SACK_BLOCKS = 4
#: Initial congestion window in segments (RFC 6928).
INIT_CWND_SEGMENTS = 10
#: DCTCP's EWMA gain for ``alpha`` (Alizadeh et al., SIGCOMM'10).
DCTCP_G = 1.0 / 16.0
#: Swift's multiplicative-decrease gain and its floor on one decrease.
SWIFT_BETA = 0.8
SWIFT_MAX_DECREASE = 0.5


class TcpHeader:
    """TCP segment header (the subset the simulation needs)."""

    __slots__ = ("src_port", "dst_port", "seq", "ack", "flags", "wnd",
                 "ece", "ts", "ts_echo", "payload_len", "meta_id",
                 "sack_blocks")

    def __init__(self, src_port: int, dst_port: int, seq: int = 0,
                 ack: int = 0, flags: int = 0, wnd: int = 0,
                 ece: bool = False, ts: int = 0, ts_echo: int = -1,
                 payload_len: int = 0, meta_id: int = 0):
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.wnd = wnd
        self.ece = ece
        self.ts = ts
        self.ts_echo = ts_echo
        self.payload_len = payload_len
        #: MPTCP join token: subflows of one meta-connection share it
        #: (0 = plain TCP).
        self.meta_id = meta_id
        #: Selective acknowledgement ranges ``[(start, end), ...]`` —
        #: received-but-not-cumulatively-acked byte ranges (RFC 2018 style,
        #: up to ``MAX_SACK_BLOCKS``), lowest first.  Only ACKs set it; the
        #: shared empty tuple spares every other header a list.
        self.sack_blocks: Sequence[Tuple[int, int]] = ()

    def __repr__(self) -> str:
        names = [name for bit, name in
                 ((FLAG_SYN, "SYN"), (FLAG_ACK, "ACK"), (FLAG_FIN, "FIN"))
                 if self.flags & bit]
        return (f"<TcpHeader {self.src_port}->{self.dst_port} "
                f"seq={self.seq} ack={self.ack} len={self.payload_len} "
                f"{'|'.join(names) or 'none'}>")


class TcpStack(TransportStack):
    """Per-host TCP: demultiplexes segments to connections, accepts on listen."""

    protocol_name = "tcp"

    def __init__(self, host: Host):
        super().__init__(host)
        self._connections: Dict[Tuple[int, int, int], "TcpConnection"] = {}
        self._listeners: Dict[int, Tuple[Callable[["TcpConnection"],
                                                  ConnectionCallbacks], dict]] = {}
        self._next_port = 10_000

    def listen(self, port: int,
               accept: Callable[["TcpConnection"], ConnectionCallbacks],
               **options) -> None:
        """Accept connections on ``port``.

        ``accept(conn)`` is called for each new connection and must return
        the :class:`ConnectionCallbacks` to attach.  ``options`` are passed
        to each accepted :class:`TcpConnection` (variant, buffers, ...).
        """
        self._listeners[port] = (accept, options)

    def connect(self, dst_address: int, dst_port: int,
                callbacks: Optional[ConnectionCallbacks] = None,
                **options) -> "TcpConnection":
        """Open a connection; returns immediately, established asynchronously."""
        local_port = self._allocate_port()
        conn = TcpConnection(self, local_port, dst_address, dst_port,
                             callbacks or ConnectionCallbacks(), **options)
        self._register(conn)
        conn.open_active()
        return conn

    def _allocate_port(self) -> int:
        self._next_port += 1
        return self._next_port

    def _register(self, conn: "TcpConnection") -> None:
        key = (conn.local_port, conn.remote_address, conn.remote_port)
        self._connections[key] = conn

    def deregister(self, conn: "TcpConnection") -> None:
        """Remove a closed connection from the demux table."""
        self._connections.pop(
            (conn.local_port, conn.remote_address, conn.remote_port), None)

    def handle_packet(self, packet: Packet) -> None:
        header: TcpHeader = packet.header
        key = (header.dst_port, packet.src, header.src_port)
        conn = self._connections.get(key)
        if conn is not None:
            conn.handle_segment(packet, header)
            return
        if header.flags & FLAG_SYN and not header.flags & FLAG_ACK:
            listener = self._listeners.get(header.dst_port)
            if listener is not None:
                self._accept(packet, header, *listener)

    def _accept(self, packet: Packet, header: TcpHeader,
                accept: Callable, options: dict) -> None:
        """Open the passive side of a connection for a listener's SYN."""
        conn = TcpConnection(self, header.dst_port, packet.src,
                             header.src_port, ConnectionCallbacks(),
                             **options)
        conn.callbacks = accept(conn)
        self._register(conn)
        conn.handle_segment(packet, header)


class TcpConnection:
    """One TCP connection endpoint (both directions of a full-duplex stream).

    ``variant`` selects congestion response: ``"reno"`` (loss-based, not
    ECN-capable), ``"dctcp"`` (ECN-capable with alpha-scaled reduction), or
    ``"swift"`` (delay-based: a target end-to-end delay with AIMD around
    it, after Kumar et al., SIGCOMM'20).
    ``recv_buffer`` bounds the receive window in bytes (None = unlimited);
    a bounded buffer holds delivered bytes until the application calls
    :meth:`consume` to open the window back up — this is how the Figure-2
    proxy applies backpressure.
    """

    def __init__(self, stack: TcpStack, local_port: int, remote_address: int,
                 remote_port: int, callbacks: ConnectionCallbacks,
                 variant: str = "reno", mss: int = 1460,
                 min_rto_ns: int = microseconds(200),
                 recv_buffer: Optional[int] = None,
                 swift_target_delay_ns: Optional[int] = None,
                 max_retries: int = 10,
                 max_rto_ns: int = microseconds(500_000),
                 entity: str = "", meta_id: int = 0):
        if variant not in ("reno", "dctcp", "swift"):
            raise ValueError(f"unknown TCP variant {variant!r}")
        self.stack = stack
        self.sim = stack.sim
        self.local_port = local_port
        self.remote_address = remote_address
        self.remote_port = remote_port
        self.callbacks = callbacks
        self.variant = variant
        self.mss = mss
        #: RTT estimate and backed-off RTO.  The cap is ``max_rto_ns``
        #: (RFC 6298 §2.5 allows one at or above 60 s; simulations use a
        #: tighter one).
        self.rtt = RtoEstimator(min_rto_ns, max_rto_ns)
        #: Consecutive data RTOs with no forward progress before the
        #: connection aborts and surfaces ``on_error`` to the app.
        self.max_retries = max_retries
        #: Receive buffer in bytes; an unbounded one is held as
        #: ``UNLIMITED_WINDOW`` and never counts unread bytes, so the
        #: advertised window is ``max(0, recv_buffer - _unread)`` either way.
        self.recv_buffer = (UNLIMITED_WINDOW if recv_buffer is None
                            else recv_buffer)
        self.entity = entity
        self.meta_id = meta_id
        #: Every segment of the connection carries this ECN codepoint and
        #: flow label (the 5-tuple that ECMP hashes).
        self._ecn = ECT_CAPABLE if variant == "dctcp" else ECT_NOT_CAPABLE
        self._flow = (stack.host.address, local_port, remote_address,
                      remote_port, "tcp")
        #: Optional override for congestion-avoidance growth — MPTCP's
        #: coupled increase installs itself here.  Called with
        #: ``(connection, newly_acked_bytes)``; slow start is unaffected.
        self.ca_growth_hook: Optional[Callable[["TcpConnection", int],
                                               None]] = None

        # Sender state.
        self.state = "closed"
        self.snd_una = 0
        self.snd_nxt = 0
        self.cwnd = INIT_CWND_SEGMENTS * mss
        self.ssthresh = UNLIMITED_WINDOW
        self.peer_wnd = mss  # until first ACK tells us better
        self.peer_ack = 0
        self._app_backlog = 0
        self._fin_pending = False
        self._fin_sent = False
        #: seq -> [len, retransmitted, send_ts, lost, sacked]
        self._segments: Dict[int, List] = {}
        self._highest_sacked = 0
        #: The keys of ``_segments`` in ascending order (new data only
        #: grows rightward): cumulative ACKs drop a prefix, SACK blocks
        #: bisect to their first segment.
        self._seg_order: List[int] = []
        #: Byte ranges whose segments are all SACKed.  Spans start and end
        #: on segment edges, so a SACK block walks only the segments in
        #: its gaps; cumulative ACKs drop the spans below ``snd_una``.
        self._sacked = Runs()
        #: Loss inference has scanned every segment below this seq; see
        #: :meth:`_process_sack_blocks`.
        self._scan_point = 0
        #: ``(retransmit time, seq)`` of retransmissions below the scan
        #: point that were inside their grace when last seen (a heap).
        self._in_grace: List[Tuple[int, int]] = []
        #: Sequence numbers marked lost, awaiting retransmission (in order).
        self._lost: Deque[int] = deque()
        #: Bytes believed to be in the network (sent, unacked, not lost).
        self._pipe = 0
        self._dupacks = 0
        self._recover = 0
        self._in_recovery = False
        self._rto_timer = Timer(self.sim, self._on_rto)
        self._syn_retries = 0
        self._consecutive_timeouts = 0

        # Receiver state.
        self.rcv_nxt = 0
        #: Out-of-order data above ``rcv_nxt``; an ACK's SACK blocks are
        #: the first ``MAX_SACK_BLOCKS`` of its spans.
        self._ooo = Runs()
        self._unread = 0
        self._peer_fin = False

        # DCTCP state.
        self.alpha = 1.0
        self._win_acked = 0
        self._win_marked = 0
        self._alpha_window_end = 0
        self._cwr_end = -1

        # Swift state.  The delay target defaults to a small multiple of
        # the minimum RTO's scale; callers should size it to the fabric.
        self.swift_target_delay_ns = (
            swift_target_delay_ns if swift_target_delay_ns is not None
            else microseconds(25))
        self._min_rtt: Optional[int] = None
        self._swift_md_until = -1

        #: Optional hook fired with the newly acknowledged byte count each
        #: time the send window advances (used by proxies for backpressure).
        self.on_send_progress: Optional[Callable[[int], None]] = None
        #: Optional hook fired once when our FIN has been acknowledged —
        #: i.e. every byte this side sent was delivered and the close is
        #: complete (distinct from callbacks.on_close, which reports the
        #: *peer's* close).
        self.on_finished: Optional[Callable[["TcpConnection"], None]] = None

        # Stats.
        self.bytes_delivered = 0  # in-order bytes handed to the app
        self.bytes_sent = 0      # first transmissions only
        self.retransmissions = 0
        self.timeouts = 0
        self.established_at: Optional[int] = None
        self.closed = False
        #: Abort reason once the transport gave up ("syn_retries_exceeded",
        #: "max_retries_exceeded"); None while healthy.
        self.error: Optional[str] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def open_active(self) -> None:
        """Begin the three-way handshake (client side)."""
        if self.state != "closed":
            raise RuntimeError(f"cannot open in state {self.state}")
        self.state = "syn_sent"
        self.snd_nxt = 1  # SYN consumes sequence 0
        self._send_control(FLAG_SYN, seq=0)
        self._rto_timer.restart(self.rtt.rto)

    def send(self, nbytes: int) -> None:
        """Queue ``nbytes`` of application data on the stream."""
        if nbytes <= 0:
            raise ValueError("send size must be positive")
        if self._fin_pending or self._fin_sent:
            raise RuntimeError("cannot send after close")
        self._app_backlog += nbytes
        self._try_send()

    def close(self) -> None:
        """Close the sending direction once all queued data is delivered."""
        self._fin_pending = True
        self._try_send()

    def consume(self, nbytes: int) -> None:
        """Application reads ``nbytes`` from the receive buffer.

        Only meaningful with a bounded ``recv_buffer``; opening the window
        may trigger a window-update ACK so a stalled sender resumes.
        """
        if nbytes < 0 or nbytes > self._unread:
            raise ValueError(
                f"cannot consume {nbytes}, unread={self._unread}")
        was_closed = self._advertised_window() < self.mss
        self._unread -= nbytes
        if was_closed and self._advertised_window() >= self.mss:
            self._send_ack()  # window update

    @property
    def send_backlog(self) -> int:
        """Bytes accepted from the app but not yet acknowledged by the peer."""
        return self._app_backlog + (self.snd_nxt - self.snd_una)

    @property
    def unread_bytes(self) -> int:
        """Bytes delivered in-order but not yet consumed by the app."""
        return self._unread

    @property
    def flight_size(self) -> int:
        """Bytes believed to be in the network (excludes marked-lost data)."""
        return self._pipe

    @property
    def outstanding(self) -> int:
        """Bytes sent but not cumulatively acknowledged (includes losses)."""
        return self.snd_nxt - self.snd_una

    @property
    def established(self) -> bool:
        """True once the handshake completed."""
        return self.state == "established"

    @property
    def closing(self) -> bool:
        """True once :meth:`close` has been called."""
        return self._fin_pending or self._fin_sent

    # ------------------------------------------------------------------
    # Segment transmission
    # ------------------------------------------------------------------

    # The per-segment paths below compare instead of calling ``min`` and
    # ``max``: each builtin call builds an argument tuple and a C call.

    def _advertised_window(self) -> int:
        window = self.recv_buffer - self._unread
        return window if window > 0 else 0

    # Headers and packets are built with positional arguments: keyword
    # calls cost more, and these run for every segment.

    def _make_header(self, flags: int, seq: int, payload_len: int = 0,
                     ts_echo: int = -1) -> TcpHeader:
        return TcpHeader(self.local_port, self.remote_port, seq,
                         self.rcv_nxt, flags, self._advertised_window(),
                         False, self.sim.now, ts_echo, payload_len,
                         self.meta_id)

    def _transmit(self, header: TcpHeader, data_bytes: int) -> None:
        flow = self._flow
        self.stack.send_packet(Packet(
            flow[0], self.remote_address, DEFAULT_HEADER_BYTES + data_bytes,
            "tcp", header, self._ecn, flow, self.entity, self.sim.now))

    def _send_control(self, flags: int, seq: int) -> None:
        self._transmit(self._make_header(flags, seq), 0)

    def _send_ack(self, ece: bool = False, ts_echo: int = -1) -> None:
        window = self.recv_buffer - self._unread
        header = TcpHeader(
            self.local_port, self.remote_port, self.snd_nxt, self.rcv_nxt,
            FLAG_ACK, window if window > 0 else 0,
            ece, self.sim.now, ts_echo, 0, self.meta_id)
        # SACK blocks: runs of out-of-order data, lowest first (RFC 2018).
        header.sack_blocks = self._ooo.spans[:MAX_SACK_BLOCKS]
        # Pure ACKs are never ECN-marked targets of interest; still carry
        # the connection's codepoint so reverse-path marking is possible.
        self._transmit(header, 0)

    def _try_send(self) -> None:
        if self.state != "established":
            return
        # The effective window: the congestion window, or what is left of
        # the peer's window, which is relative to its cumulative ACK.
        window = self.peer_ack + self.peer_wnd - self.snd_una
        if self.cwnd < window:
            window = self.cwnd
        # Retransmissions of marked-lost segments first (in sequence order);
        # always allow progress when the pipe is empty.
        while self._lost:
            seq = self._lost[0]
            entry = self._segments.get(seq)
            if entry is None or not entry[3]:
                self._lost.popleft()  # acked or already repaired
                continue
            size = entry[0]
            if self._pipe > 0 and self._pipe + size > window:
                return
            self._lost.popleft()
            self._retransmit_segment(seq, entry)
        mss = self.mss
        while self._app_backlog > 0:
            size = self._app_backlog
            if size > mss:
                size = mss
            if self._pipe + size > window:
                break
            self._send_data_segment(self.snd_nxt, size)
            self._app_backlog -= size
            self.snd_nxt += size
        if (self._fin_pending and not self._fin_sent
                and self._app_backlog == 0):
            self._fin_sent = True
            self._send_control(FLAG_FIN | FLAG_ACK, seq=self.snd_nxt)
            self._segments[self.snd_nxt] = [1, False, self.sim.now, False,
                                            False]
            self._seg_order.append(self.snd_nxt)
            self._pipe += 1
            self.snd_nxt += 1  # FIN consumes one sequence number
            if not self._rto_timer.running:
                self._rto_timer.restart(self.rtt.rto)

    def _send_data_segment(self, seq: int, size: int) -> None:
        window = self.recv_buffer - self._unread
        now = self.sim.now
        self._transmit(TcpHeader(
            self.local_port, self.remote_port, seq, self.rcv_nxt, FLAG_ACK,
            window if window > 0 else 0,
            False, now, -1, size, self.meta_id), size)
        self.bytes_sent += size
        self._segments[seq] = [size, False, now, False, False]
        self._seg_order.append(seq)
        self._pipe += size
        if not self._rto_timer.running:
            self._rto_timer.restart(self.rtt.rto)

    def _retransmit_segment(self, seq: int, entry: List) -> None:
        size = entry[0]
        is_fin = (self._fin_sent and size == 1
                  and seq + 1 == self.snd_nxt)
        if is_fin:
            self._send_control(FLAG_FIN | FLAG_ACK, seq=seq)
        else:
            header = self._make_header(FLAG_ACK, seq, payload_len=size)
            self._transmit(header, size)
        now = self.sim.now
        entry[1] = True
        entry[2] = now
        entry[3] = False
        self._pipe += size
        self.retransmissions += 1
        if seq < self._scan_point:
            # Loss inference has passed this segment: it waits out its
            # grace in the heap instead.
            heappush(self._in_grace, (now, seq))
        if not self._rto_timer.running:
            self._rto_timer.restart(self.rtt.rto)

    def _mark_lost(self, seq: int) -> bool:
        """Flag a segment lost, freeing its pipe share; returns True if new."""
        entry = self._segments.get(seq)
        if entry is None or entry[3] or entry[4]:
            return False  # already lost, or SACKed (known delivered)
        entry[3] = True
        self._pipe -= entry[0]
        self._lost.append(seq)
        return True

    def _process_sack_blocks(self, blocks: Sequence[Tuple[int, int]]) -> None:
        """Mark SACKed segments delivered; infer losses below the highest
        SACK (simplified RFC 6675).

        The work follows what is new, not the window.  A block walks only
        the segments in its gaps between the ``_sacked`` spans.  Loss
        inference resumes at ``_scan_point``: every segment below it is
        lost, SACKed, or a retransmission still inside its grace, and each
        of those retransmissions has an entry in the ``_in_grace`` heap.
        The expired entries are marked first, then the scan goes on from
        the point; every seq below the point is lower than every seq at or
        above it, so segments are marked lost in ascending seq order, as a
        scan from the front would mark them.
        """
        if not blocks:
            return
        segments = self._segments
        order = self._seg_order
        count = len(order)
        spans = self._sacked.spans
        highest = self._highest_sacked
        for start, end in blocks:
            if end > highest:
                highest = end
            # The span holding ``start``, if any, is already SACKed.
            k = bisect_left(spans, (start + 1,))
            cursor = start
            if k and spans[k - 1][1] > start:
                cursor = spans[k - 1][1]
                if cursor >= end:
                    continue
            # Segments are disjoint and ascending, so ``seq + size`` grows
            # along ``order``; the block covers one contiguous run of them.
            first = last = -1
            i = bisect_left(order, cursor)
            while i < count:
                seq = order[i]
                if k < len(spans) and seq >= spans[k][0]:
                    # The gap ends at a span SACKed before: skip its
                    # segments.
                    i = bisect_left(order, spans[k][1], i)
                    k += 1
                    continue
                entry = segments[seq]
                size = entry[0]
                if seq + size > end:
                    break
                if first < 0:
                    first = seq
                last = seq
                i += 1
                if entry[4]:
                    continue
                entry[4] = True
                if not entry[3]:
                    self._pipe -= size
                else:
                    entry[3] = False  # no need to retransmit after all
            if first >= 0:
                self._sacked.add(first, last + segments[last][0])
        self._highest_sacked = highest
        # Loss inference: an unsacked segment with >= 3 MSS of SACKed data
        # above it is presumed lost (no need to wait for the RTO).
        # Retransmitted segments are only re-presumed lost once an RTT has
        # passed since the retransmission, or the inference would re-mark
        # them on every SACK and churn forever.
        srtt = self.rtt.srtt
        retx_grace = srtt if srtt is not None else self.rtt.min_ns
        now = self.sim.now
        newly_lost = False
        in_grace = self._in_grace
        if in_grace and now - in_grace[0][0] > retx_grace:
            expired = []
            while in_grace and now - in_grace[0][0] > retx_grace:
                sent, seq = heappop(in_grace)
                entry = segments.get(seq)
                # Stale once acked or retransmitted again; ``_mark_lost``
                # skips the lost and SACKed ones.
                if entry is not None and entry[2] == sent:
                    expired.append(seq)
            expired.sort()
            for seq in expired:
                if self._mark_lost(seq):
                    newly_lost = True
        threshold = highest - 3 * self.mss
        point = self._scan_point
        for i in range(bisect_left(order, point), count):
            seq = order[i]
            entry = segments[seq]
            seg_end = seq + entry[0]
            if seg_end > threshold:
                break
            point = seg_end
            if entry[3] or entry[4]:
                continue
            if not entry[1] or now - entry[2] > retx_grace:
                self._mark_lost(seq)
                newly_lost = True
            else:
                heappush(in_grace, (entry[2], seq))
        self._scan_point = point
        if newly_lost and not self._in_recovery:
            self._in_recovery = True
            self._recover = self.snd_nxt
            self.ssthresh = max(self._pipe // 2, 2 * self.mss)
            self.cwnd = self.ssthresh + 3 * self.mss

    # ------------------------------------------------------------------
    # Segment reception
    # ------------------------------------------------------------------

    def handle_segment(self, packet: Packet, header: TcpHeader) -> None:
        """Process one incoming segment (data, ACK, or control)."""
        if self.closed:
            return
        if header.flags & FLAG_SYN:
            self._handle_syn(header)
            return
        if self.state == "syn_sent":
            # Plain ACK without SYN in syn_sent: ignore.
            return
        if header.flags & FLAG_ACK and header.ack > self.snd_nxt:
            # ACK of unsent data: re-ACK and drop (RFC 9293 §3.10.7.4).
            self._send_ack()
            return
        if self.state == "syn_received" and header.flags & FLAG_ACK:
            self._become_established()
        if header.payload_len > 0:
            self._handle_data(packet, header)
        if header.flags & FLAG_FIN:
            self._handle_fin(header)
        if header.flags & FLAG_ACK:
            self._handle_ack(header)

    def _handle_syn(self, header: TcpHeader) -> None:
        if header.flags & FLAG_ACK:  # SYN-ACK at the client
            if self.state != "syn_sent":
                return
            self.rcv_nxt = header.seq + 1
            self.snd_una = header.ack
            self.peer_ack = header.ack
            self.peer_wnd = header.wnd
            self._become_established()
            self._sample_rtt(header.ts_echo)
            self._send_ack()
        else:  # SYN at the server
            if self.state == "closed":
                self.state = "syn_received"
                self.rcv_nxt = header.seq + 1
                self.snd_nxt = 1
                syn_ack = self._make_header(FLAG_SYN | FLAG_ACK, seq=0,
                                            ts_echo=header.ts)
                self._transmit(syn_ack, 0)
                self._rto_timer.restart(self.rtt.rto)
            else:
                # Duplicate SYN: re-send the SYN-ACK.
                syn_ack = self._make_header(FLAG_SYN | FLAG_ACK, seq=0,
                                            ts_echo=header.ts)
                self._transmit(syn_ack, 0)

    def _become_established(self) -> None:
        if self.state == "established":
            return
        self.state = "established"
        self.snd_una = max(self.snd_una, 1)
        self.peer_ack = max(self.peer_ack, self.snd_una)
        self.established_at = self.sim.now
        self._rto_timer.stop()
        self._alpha_window_end = self.snd_nxt
        self.callbacks.on_connected(self)
        self._try_send()

    def _handle_data(self, packet: Packet, header: TcpHeader) -> None:
        seq, size = header.seq, header.payload_len
        rcv_nxt = self.rcv_nxt
        if seq == rcv_nxt:
            # The segment may close the hole below held data.
            end = self.rcv_nxt = self._ooo.advance(seq + size)
            self._deliver(end - seq)
        elif seq > rcv_nxt:
            window = self.recv_buffer - self._unread
            if seq + size - rcv_nxt <= (window if window > size else size):
                self._ooo.add(seq, seq + size)
        # else: old duplicate (or beyond the window), just re-ACK.
        self._send_ack(packet.ecn == ECT_CE, header.ts)

    def _deliver(self, size: int) -> None:
        self.bytes_delivered += size
        if self.recv_buffer != UNLIMITED_WINDOW:
            self._unread += size  # held until the app consumes it
        self.callbacks.on_data(self, size)

    def _handle_fin(self, header: TcpHeader) -> None:
        fin_seq = header.seq + header.payload_len
        if fin_seq == self.rcv_nxt and not self._peer_fin:
            self._peer_fin = True
            self.rcv_nxt += 1
            self.callbacks.on_close(self)
        self._send_ack(ts_echo=header.ts)

    # ------------------------------------------------------------------
    # ACK processing and congestion control
    # ------------------------------------------------------------------

    def _handle_ack(self, header: TcpHeader) -> None:
        # A changed window makes this a window update, never a duplicate
        # ACK (RFC 5681 §2, condition (e)).
        window_unchanged = header.wnd == self.peer_wnd
        self.peer_wnd = header.wnd
        ack = header.ack
        if ack > self.peer_ack:
            self.peer_ack = ack
        if header.sack_blocks:
            self._process_sack_blocks(header.sack_blocks)
        if ack > self.snd_una:
            newly_acked = ack - self.snd_una
            self._ack_segments(ack)
            self.snd_una = ack
            self._dupacks = 0
            # Forward progress: the retry budget and backoff reset
            # (RFC 6298 §5.7 — a fresh RTT sample below also recomputes
            # the un-backed-off RTO).
            self._consecutive_timeouts = 0
            rtt = self.rtt
            rtt_sample = rtt.sample(self.sim.now, header.ts_echo)
            if rtt_sample is not None:
                rtt.backoff = 0
                if self._min_rtt is None or rtt_sample < self._min_rtt:
                    self._min_rtt = rtt_sample
            if self._ecn == ECT_CAPABLE:
                self._dctcp_on_ack(newly_acked, header.ece)
            if self.variant == "swift" and rtt_sample is not None:
                self._swift_on_ack(rtt_sample)
            if self._in_recovery:
                if ack >= self._recover:
                    self._in_recovery = False
                    self.cwnd = self.ssthresh
                else:
                    # Partial ACK: retransmit the next hole (NewReno).
                    self._retransmit_head()
            elif self.variant != "swift":
                # Congestion window growth.
                cwnd = self.cwnd
                if cwnd < self.ssthresh:
                    self.cwnd = cwnd + newly_acked  # slow start
                elif self.ca_growth_hook is not None:
                    self.ca_growth_hook(self, newly_acked)
                else:
                    growth = self.mss * newly_acked // cwnd
                    self.cwnd = cwnd + (growth if growth > 1 else 1)
            if ack == self.snd_nxt:
                self._rto_timer.stop()
            else:
                self._rto_timer.restart(rtt.rto)
            self._try_send()
            if self.on_send_progress is not None:
                self.on_send_progress(newly_acked)
        elif (ack == self.snd_una and self._pipe > 0
              and header.payload_len == 0 and not header.flags & FLAG_FIN
              and window_unchanged):
            self._dupacks += 1
            if self._ecn == ECT_CAPABLE:
                self._dctcp_on_ack(0, header.ece)
            if self._dupacks == 3 and not self._in_recovery:
                self._enter_fast_recovery()
            elif self._in_recovery:
                # Window inflation during recovery.
                self.cwnd += self.mss
                self._try_send()
        else:
            self._try_send()
        if self._fin_sent:
            self._maybe_finish_close()

    def _ack_segments(self, ack: int) -> None:
        acked = 0
        for seq in self._seg_order:
            entry = self._segments[seq]
            if seq + entry[0] > ack:
                break
            acked += 1
            del self._segments[seq]
            if not entry[3] and not entry[4]:
                self._pipe -= entry[0]
        del self._seg_order[:acked]
        self._sacked.drop_below(ack)
        in_grace = self._in_grace
        if len(in_grace) > 2 * len(self._seg_order):
            # An entry is live only while its segment is unacked and was
            # last retransmitted at the entry's time, so most of these are
            # stale: drop them instead of holding them until they expire.
            segments = self._segments
            in_grace[:] = [item for item in in_grace
                           if item[1] in segments
                           and segments[item[1]][2] == item[0]]
            heapify(in_grace)

    def _enter_fast_recovery(self) -> None:
        self._in_recovery = True
        self._recover = self.snd_nxt
        self.ssthresh = max(self.flight_size // 2, 2 * self.mss)
        self.cwnd = self.ssthresh + 3 * self.mss
        self._mark_lost(self.snd_una)
        self._try_send()

    def _retransmit_head(self) -> None:
        """Mark the head segment lost and repair it (partial-ACK path)."""
        if self._mark_lost(self.snd_una):
            self._try_send()
        self._rto_timer.restart(self.rtt.rto)

    def _on_rto(self) -> None:
        if self.closed:
            return
        self.timeouts += 1
        if self.state == "syn_sent":
            self._syn_retries += 1
            if self._syn_retries > 8:
                self._abort("syn_retries_exceeded")
                return
            self._send_control(FLAG_SYN, seq=0)
            self.rtt.backoff += 1
            self._rto_timer.restart(self.rtt.rto)
            return
        if self.state == "syn_received":
            self._syn_retries += 1
            if self._syn_retries > 8:
                self._abort("syn_retries_exceeded")
                return
            syn_ack = self._make_header(FLAG_SYN | FLAG_ACK, seq=0)
            self._transmit(syn_ack, 0)
            self.rtt.backoff += 1
            self._rto_timer.restart(self.rtt.rto)
            return
        if self.outstanding == 0:
            return
        self._consecutive_timeouts += 1
        if self._consecutive_timeouts > self.max_retries:
            # R2 of RFC 6298 / classic "ETIMEDOUT": the peer is presumed
            # unreachable, so stop retransmitting and tell the app.
            self._abort("max_retries_exceeded")
            return
        # Go-back-N: everything unacknowledged is presumed lost; slow start
        # will clock the retransmissions back out.
        self.ssthresh = max(self._pipe // 2, 2 * self.mss)
        for seq in self._seg_order:
            self._mark_lost(seq)
        self.cwnd = self.mss
        self._in_recovery = False
        self._dupacks = 0
        self.rtt.backoff += 1
        self._rto_timer.restart(self.rtt.rto)
        self._try_send()

    def _sample_rtt(self, ts_echo: int) -> Optional[int]:
        sample = self.rtt.sample(self.sim.now, ts_echo)
        if sample is None:
            return None
        self.rtt.backoff = 0  # a fresh sample recomputes the RTO
        if self._min_rtt is None or sample < self._min_rtt:
            self._min_rtt = sample
        return sample

    # ------------------------------------------------------------------
    # DCTCP
    # ------------------------------------------------------------------

    def _dctcp_on_ack(self, newly_acked: int, ece: bool) -> None:
        """DCTCP's per-ACK update; called for ECN-capable connections."""
        self._win_acked += newly_acked
        if ece:
            self._win_marked += newly_acked
            if self.snd_una > self._cwr_end:
                # One reduction per window of data.
                self._cwr_end = self.snd_nxt
                reduced = int(self.cwnd * (1 - self.alpha / 2))
                self.cwnd = max(reduced, 2 * self.mss)
                self.ssthresh = self.cwnd
        if self.snd_una >= self._alpha_window_end:
            if self._win_acked > 0:
                fraction = self._win_marked / self._win_acked
                self.alpha = ((1 - DCTCP_G) * self.alpha
                              + DCTCP_G * fraction)
            self._win_acked = 0
            self._win_marked = 0
            self._alpha_window_end = self.snd_nxt

    # ------------------------------------------------------------------
    # Swift (delay-based)
    # ------------------------------------------------------------------

    def _swift_on_ack(self, rtt_sample: int) -> None:
        """Grow below the delay target, shrink proportionally above it.

        Delay is the RTT sample minus the observed propagation floor
        (min RTT); decrease is multiplicative, bounded, and applied at
        most once per RTT — the Swift shape.
        """
        base = self._min_rtt if self._min_rtt is not None else rtt_sample
        delay = max(0, rtt_sample - base)
        if delay <= self.swift_target_delay_ns:
            if self.cwnd < self.ssthresh:
                self.cwnd += self.mss
            else:
                self.cwnd += max(1, self.mss * self.mss // int(self.cwnd))
        elif self.sim.now > self._swift_md_until:
            self._swift_md_until = (self.sim.now
                                    + (self.rtt.srtt or rtt_sample))
            over = (delay - self.swift_target_delay_ns) / max(delay, 1)
            factor = max(1 - SWIFT_BETA * over, SWIFT_MAX_DECREASE)
            self.cwnd = max(self.mss, int(self.cwnd * factor))
            self.ssthresh = self.cwnd

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def _maybe_finish_close(self) -> None:
        if (self._fin_sent and self.snd_una == self.snd_nxt
                and self._app_backlog == 0 and not self.closed):
            self.closed = True
            self._rto_timer.stop()
            self.stack.deregister(self)
            if self.on_finished is not None:
                self.on_finished(self)

    def _abort(self, reason: str = "aborted") -> None:
        """Unilateral teardown: timer disarmed, demux entry gone, app told.

        ``closed`` is set first, so re-entrant segment arrivals and timer
        races cannot fire the error callback twice.
        """
        if self.closed:
            return
        self.closed = True
        self.error = reason
        self._rto_timer.stop()
        self.stack.deregister(self)
        self.callbacks.on_error(self, reason)
        self.callbacks.on_close(self)

    def __repr__(self) -> str:
        return (f"<TcpConnection {self.variant} {self.local_port}->"
                f"{self.remote_address}:{self.remote_port} {self.state} "
                f"cwnd={self.cwnd} una={self.snd_una} nxt={self.snd_nxt}>")
