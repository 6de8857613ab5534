"""MPTCP: multipath TCP with coupled (LIA) congestion control.

A Table-1 baseline: MPTCP splits a stream over several subflows — distinct
5-tuples, so ECMP hashes them onto different paths — with the Linked
Increases Algorithm coupling their congestion-avoidance growth so the
bundle is fair to single-path TCP at shared bottlenecks.

Modelling notes:

* Each subflow is a full :class:`~repro.transport.tcp.TcpConnection`
  (handshake, recovery, flow control); subflows of one meta-connection
  share a ``meta_id`` carried in the SYN, which is how the passive side
  groups joins.
* The data-sequence mapping is bookkept at the sender and read by the
  receiver when subflow bytes arrive.  Our TCP substrate does not carry
  payload bytes — only counts — so "reading the mapping" stands in for
  parsing the DSS option; arrival order and in-order meta-delivery are
  still modelled faithfully: meta bytes that arrive ahead of the
  in-order point are held as :class:`~repro.transport.base.Runs`.
* Scheduling: chunks go to the established subflow with the most
  congestion-window headroom (a min-RTT-style scheduler simplified to
  headroom, which is what matters at these timescales).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from ..net.node import Host
from ..net.packet import Packet
from ..sim.engine import Simulator
from ..sim.units import microseconds
from .base import ConnectionCallbacks, Runs
from .tcp import TcpConnection, TcpHeader, TcpStack

__all__ = ["MptcpStack", "MptcpConnection"]

_meta_ids = itertools.count(1)

#: Bytes assigned to a subflow per scheduling decision.
CHUNK_BYTES = 4 * 1460

#: Never leave more than this many unsent bytes parked on one subflow —
#: bytes committed to a subflow cannot be reinjected elsewhere, so a
#: collapsing subflow would head-of-line block the meta-stream.
MAX_SUBFLOW_BACKLOG = 2 * CHUNK_BYTES


class MptcpConnection:
    """A meta-connection striping one stream over several subflows."""

    def __init__(self, stack: "MptcpStack", meta_id: int,
                 callbacks: ConnectionCallbacks, n_subflows: int,
                 is_client: bool):
        self.stack = stack
        self.sim: Simulator = stack.sim
        self.meta_id = meta_id
        self.callbacks = callbacks
        self.n_subflows = n_subflows
        self.is_client = is_client
        self.subflows: List[TcpConnection] = []
        self._established = False
        # Sender side.
        self._meta_backlog = 0       # bytes accepted, not yet assigned
        self._next_meta_offset = 0   # next unassigned meta byte
        #: subflow -> FIFO of (meta_offset, length) mappings in the order
        #: the subflow will deliver them.
        self._mappings: Dict[TcpConnection, deque] = {}
        self._close_pending = False
        # Receiver side.
        #: Meta bytes received above ``bytes_delivered``.
        self._received = Runs()
        self.bytes_delivered = 0  # in-order meta bytes handed to the app
        self.bytes_received_any_order = 0
        self.bytes_sent = 0

    # -- wiring ----------------------------------------------------------

    def _attach_subflow(self, subflow: TcpConnection) -> None:
        self.subflows.append(subflow)
        self._mappings[subflow] = deque()
        subflow.ca_growth_hook = self._lia_growth
        subflow.on_send_progress = lambda acked: self._schedule()
        subflow.callbacks = ConnectionCallbacks(
            on_connected=self._on_subflow_connected,
            on_data=self._on_subflow_data,
            on_close=self._on_subflow_close)

    def _on_subflow_connected(self, subflow: TcpConnection) -> None:
        if not self._established:
            self._established = True
            self.callbacks.on_connected(self)
        self._schedule()

    # -- sending -----------------------------------------------------------

    def send(self, nbytes: int) -> None:
        """Queue ``nbytes`` on the meta-stream."""
        if nbytes <= 0:
            raise ValueError("send size must be positive")
        self._meta_backlog += nbytes
        self._schedule()

    def close(self) -> None:
        """Close every subflow once assigned data drains."""
        self._close_pending = True
        self._maybe_close_subflows()

    def _headroom(self, subflow: TcpConnection) -> int:
        if not subflow.established or subflow.closing:
            return 0
        if subflow._app_backlog >= MAX_SUBFLOW_BACKLOG:
            return 0
        window = min(subflow.cwnd,
                     subflow.peer_ack + subflow.peer_wnd - subflow.snd_una)
        return max(0, window - subflow.flight_size
                   - subflow._app_backlog)

    def _schedule(self) -> None:
        """Assign backlog chunks to the subflow with the most headroom."""
        progress = True
        while self._meta_backlog > 0 and progress:
            progress = False
            best = max(self.subflows, key=self._headroom, default=None)
            if best is None or self._headroom(best) <= 0:
                break
            chunk = min(CHUNK_BYTES, self._meta_backlog,
                        max(self._headroom(best), best.mss))
            self._mappings[best].append((self._next_meta_offset, chunk))
            self._next_meta_offset += chunk
            self._meta_backlog -= chunk
            self.bytes_sent += chunk
            best.send(chunk)
            progress = True
        self._maybe_close_subflows()

    def _maybe_close_subflows(self) -> None:
        if not self._close_pending or self._meta_backlog > 0:
            return
        for subflow in self.subflows:
            if subflow.established and not subflow.closing:
                subflow.close()

    # -- receiving -----------------------------------------------------------

    def _on_subflow_data(self, subflow: TcpConnection, nbytes: int) -> None:
        peer = self.stack.peer_of(self)
        if peer is None:
            return
        # Consume the peer's mapping queue for the mirror subflow: bytes
        # arrive in subflow order, so mappings resolve FIFO.
        mirror = peer._mirror_subflow(subflow)
        if mirror is None:
            return
        remaining = nbytes
        queue = peer._mappings[mirror]
        received = self._received
        while remaining > 0 and queue:
            offset, length = queue[0]
            take = min(length, remaining)
            received.add(offset, offset + take)
            self.bytes_received_any_order += take
            remaining -= take
            if take == length:
                queue.popleft()
            else:
                queue[0] = (offset + take, length - take)
            end = received.advance(self.bytes_delivered)
            if end > self.bytes_delivered:
                newly_ordered = end - self.bytes_delivered
                self.bytes_delivered = end
                self.callbacks.on_data(self, newly_ordered)

    def _mirror_subflow(self, remote_subflow: TcpConnection
                        ) -> Optional[TcpConnection]:
        for subflow in self.subflows:
            if (subflow.local_port == remote_subflow.remote_port
                    and subflow.remote_port == remote_subflow.local_port):
                return subflow
        return None

    def _on_subflow_close(self, subflow: TcpConnection) -> None:
        if all(conn._peer_fin for conn in self.subflows
               if conn.established):
            self.callbacks.on_close(self)

    # -- coupled congestion control (LIA) ---------------------------------

    def _lia_growth(self, subflow: TcpConnection, newly_acked: int) -> None:
        """RFC 6356 linked increase: for each ACK on subflow i,
        ``cwnd_i += min(alpha * acked * mss / cwnd_total,
        acked * mss / cwnd_i)``."""
        total_cwnd = sum(conn.cwnd for conn in self.subflows
                         if conn.established)
        if total_cwnd <= 0:
            return
        alpha = self._lia_alpha(total_cwnd)
        coupled = alpha * newly_acked * subflow.mss / total_cwnd
        uncoupled = newly_acked * subflow.mss / subflow.cwnd
        subflow.cwnd += max(1, int(min(coupled, uncoupled)))

    def _lia_alpha(self, total_cwnd: int) -> float:
        best = 0.0
        denominator = 0.0
        for conn in self.subflows:
            if not conn.established:
                continue
            rtt = conn.rtt.srtt or microseconds(20)
            best = max(best, conn.cwnd / (rtt * rtt))
            denominator += conn.cwnd / rtt
        if denominator <= 0:
            return 1.0
        return total_cwnd * best / (denominator * denominator)

    def __repr__(self) -> str:
        return (f"<MptcpConnection meta={self.meta_id} "
                f"subflows={len(self.subflows)} "
                f"delivered={self.bytes_delivered}>")


class MptcpStack(TcpStack):
    """Per-host MPTCP: a TCP stack whose connections are the subflows of
    meta-connections.

    It demultiplexes under its own protocol name, so plain TCP on the
    same host is unaffected.  Only the SYN-accept branch differs from
    TCP: a listener's ``accept(meta)`` is called once per
    meta-connection, and its ``options`` go to every subflow.
    """

    protocol_name = "mptcp"

    def __init__(self, host: Host):
        super().__init__(host)
        self._next_port = 40_000
        self._metas: Dict[Tuple[int, int], MptcpConnection] = {}

    def send_packet(self, packet: Packet) -> bool:
        """Send a subflow segment under the "mptcp" protocol label."""
        packet.protocol = "mptcp"
        return self.host.send(packet)

    # -- client side -------------------------------------------------------

    def connect(self, dst_address: int, dst_port: int,
                callbacks: Optional[ConnectionCallbacks] = None,
                n_subflows: int = 2, **options) -> MptcpConnection:
        """Open a meta-connection with ``n_subflows`` subflows."""
        if n_subflows <= 0:
            raise ValueError("need at least one subflow")
        meta_id = next(_meta_ids)
        meta = MptcpConnection(self, meta_id,
                               callbacks or ConnectionCallbacks(),
                               n_subflows, is_client=True)
        self._metas[(dst_address, meta_id)] = meta
        _GLOBAL_META_REGISTRY[(meta_id, True)] = meta
        for _ in range(n_subflows):
            local_port = self._allocate_port()
            subflow = TcpConnection(self, local_port, dst_address,
                                    dst_port, ConnectionCallbacks(),
                                    meta_id=meta_id, **options)
            self._register(subflow)
            meta._attach_subflow(subflow)
            subflow.open_active()
        return meta

    # -- server side -------------------------------------------------------

    def peer_of(self, meta: MptcpConnection) -> Optional[MptcpConnection]:
        """The remote meta-connection object.

        Modelling shortcut: our TCP substrate moves byte *counts*, not byte
        contents, so the data-sequence mapping a real receiver would parse
        from the DSS option is instead read from the sender's bookkeeping.
        Meta ids are globally unique, so the lookup is exact.
        """
        return _GLOBAL_META_REGISTRY.get((meta.meta_id,
                                          not meta.is_client))

    def _accept(self, packet: Packet, header: TcpHeader,
                accept: Callable, options: dict) -> None:
        meta_key = (packet.src, header.meta_id)
        meta = self._metas.get(meta_key)
        if meta is None:
            meta = MptcpConnection(self, header.meta_id,
                                   ConnectionCallbacks(), 0,
                                   is_client=False)
            self._metas[meta_key] = meta
            meta.callbacks = accept(meta)
            _GLOBAL_META_REGISTRY[(header.meta_id, False)] = meta
        subflow = TcpConnection(self, header.dst_port, packet.src,
                                header.src_port, ConnectionCallbacks(),
                                meta_id=header.meta_id, **options)
        self._register(subflow)
        meta._attach_subflow(subflow)
        subflow.handle_segment(packet, header)


#: (meta_id, is_client) -> MptcpConnection, for multi-hop peer lookup.
_GLOBAL_META_REGISTRY: Dict[Tuple[int, bool], MptcpConnection] = {}
