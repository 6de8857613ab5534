"""Bridging TCP islands over MTP (Section 4, "Interaction with TCP").

"MTP can coexist with legacy TCP devices ... MTP devices can bridge TCP
islands."  A pair of gateways demonstrates it: the client-side gateway
terminates legacy TCP connections and carries the stream as MTP messages
across the MTP core; the server-side gateway re-originates TCP to the
legacy server.  Stream order is restored from per-chunk offsets, so the
MTP core is free to reorder, multipath, and congestion-control the
messages as it pleases.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

from ..core.endpoint import DeliveredMessage, MtpEndpoint, MtpStack
from ..net.node import Host
from ..sim.engine import Simulator
from ..transport.base import ConnectionCallbacks, Runs
from ..transport.tcp import TcpConnection, TcpStack

__all__ = ["TcpMtpGateway", "BridgeChunk", "GATEWAY_MTP_PORT"]

#: MTP port the gateways speak to each other on.
GATEWAY_MTP_PORT = 9000
#: Most stream bytes carried by one bridge message.
CHUNK_BYTES = 16 * 1460

_session_ids = itertools.count(1)


class BridgeChunk:
    """One hop of bridged stream data.

    ``direction`` is "fwd" (client -> server) or "rev"; ``offset`` orders
    chunks within a direction; ``fin`` marks the end of that direction.
    """

    __slots__ = ("session_id", "direction", "offset", "length", "fin")

    def __init__(self, session_id: int, direction: str, offset: int,
                 length: int, fin: bool = False):
        self.session_id = session_id
        self.direction = direction
        self.offset = offset
        self.length = length
        self.fin = fin

    def __repr__(self) -> str:
        return (f"<BridgeChunk s{self.session_id} {self.direction} "
                f"@{self.offset}+{self.length}{' FIN' if self.fin else ''}>")


class _Session:
    """One bridged TCP connection: local leg + chunk reassembly."""

    def __init__(self, session_id: int, peer_address: int):
        self.session_id = session_id
        self.peer_address = peer_address
        self.conn: Optional[TcpConnection] = None
        self.send_offset = 0        # next offset we emit toward the peer
        # Reassembly of the peer's chunks: offsets below ``next_offset``
        # went into the local leg; ``held`` files the ones above it.  The
        # FIN chunk covers the one offset ``fin_offset``.
        self.next_offset = 0
        self.held = Runs()
        self.fin_offset: Optional[int] = None
        self.early_chunks: list = []  # chunks before the local leg is up
        self.bytes_bridged = 0


class TcpMtpGateway(Host):
    """A TCP<->MTP bridge endpoint.

    On the client island: ``listen_port`` set — accepts TCP, forwards over
    MTP to ``peer``.  On the server island: ``upstream`` assigned the
    legacy server's ``(address, port)`` — receives MTP, originates TCP to
    it.  The same instance may play both roles (back-to-back islands).
    """

    def __init__(self, sim: Simulator, name: str,
                 listen_port: Optional[int] = None):
        super().__init__(sim, name)
        self.listen_port = listen_port
        self.upstream: Optional[Tuple[int, int]] = None
        self.peer_address: Optional[int] = None
        self.tcp = TcpStack(self)
        self.mtp = MtpStack(self)
        self.endpoint: MtpEndpoint = self.mtp.endpoint(
            port=GATEWAY_MTP_PORT, on_message=self._on_bridge_message)
        self._sessions: Dict[int, _Session] = {}
        self.sessions_opened = 0
        if listen_port is not None:
            self.tcp.listen(listen_port, self._accept_client)

    def set_peer(self, peer_address: int) -> None:
        """Configure the remote gateway (after the topology exists)."""
        self.peer_address = peer_address

    # -- client island ------------------------------------------------------

    def _accept_client(self, conn: TcpConnection) -> ConnectionCallbacks:
        if self.peer_address is None:
            raise RuntimeError(f"gateway {self.name}: set_peer() missing")
        session = _Session(next(_session_ids), self.peer_address)
        session.conn = conn
        self._sessions[session.session_id] = session
        self.sessions_opened += 1

        def flush_early(conn_):
            for chunk in session.early_chunks:
                self._deliver(session, chunk)
            session.early_chunks.clear()

        return ConnectionCallbacks(
            on_connected=flush_early,
            on_data=lambda c, n: self._relay_bytes(session, "fwd", n),
            on_close=lambda c: self._relay_fin(session, "fwd"))

    # -- shared relay machinery ----------------------------------------------

    def _relay_bytes(self, session: _Session, direction: str,
                     nbytes: int) -> None:
        remaining = nbytes
        while remaining > 0:
            size = min(CHUNK_BYTES, remaining)
            chunk = BridgeChunk(session.session_id, direction,
                                session.send_offset, size)
            session.send_offset += size
            session.bytes_bridged += size
            remaining -= size
            self.endpoint.send_message(session.peer_address,
                                       GATEWAY_MTP_PORT, size,
                                       payload=chunk)

    def _relay_fin(self, session: _Session, direction: str) -> None:
        chunk = BridgeChunk(session.session_id, direction,
                            session.send_offset, 1, fin=True)
        session.send_offset += 1
        self.endpoint.send_message(session.peer_address, GATEWAY_MTP_PORT,
                                   1, payload=chunk)

    # -- MTP side ------------------------------------------------------------

    def _on_bridge_message(self, endpoint: MtpEndpoint,
                           message: DeliveredMessage) -> None:
        chunk = message.payload
        if not isinstance(chunk, BridgeChunk):
            return
        session = self._sessions.get(chunk.session_id)
        if session is None:
            session = _Session(chunk.session_id, message.src_address)
            self._sessions[chunk.session_id] = session
            self.sessions_opened += 1
            self._open_upstream(session)
        if session.conn is None or not session.conn.established:
            session.early_chunks.append(chunk)
            return
        self._deliver(session, chunk)

    def _deliver(self, session: _Session, chunk: BridgeChunk) -> None:
        """Feed one chunk to the established local leg, in stream order."""
        if chunk.fin:
            session.fin_offset = chunk.offset
        session.held.add(chunk.offset, chunk.offset + chunk.length)
        start = session.next_offset
        end = session.next_offset = session.held.advance(start)
        # In-order delivery crosses the FIN offset at most once.
        fin = (session.fin_offset is not None
               and start <= session.fin_offset < end)
        payload = end - start - fin
        if payload > 0:
            session.conn.send(payload)
            session.bytes_bridged += payload
        if fin:
            session.conn.close()

    def _open_upstream(self, session: _Session) -> None:
        if self.upstream is None:
            return  # pure client-island gateway: sessions originate here
        server_address, server_port = self.upstream

        def on_connected(conn):
            for chunk in session.early_chunks:
                self._deliver(session, chunk)
            session.early_chunks.clear()

        session.conn = self.tcp.connect(
            server_address, server_port,
            ConnectionCallbacks(
                on_connected=on_connected,
                on_data=lambda c, n: self._relay_bytes(session, "rev", n),
                on_close=lambda c: self._relay_fin(session, "rev")))
