"""TCP-terminating proxy: the Figure-2 middlebox.

An L7 device that cannot pass TCP through (it rewrites the stream) must
*terminate*: accept the client's connection and open its own connection to
the server, relaying bytes between the two.  With a rate mismatch the proxy
buffer either grows without bound (unlimited receive window) or caps out and
head-of-line-blocks the fast side (limited receive window).  The paper's
experiment measures exactly this trade-off.

:class:`TcpProxy` is a host running a TCP stack; for each accepted client
connection it opens an upstream connection to a configured server and
relays.  ``buffer_limit=None`` reproduces the unbounded-buffer mode;
a byte limit reproduces the HOL-blocking mode.
"""

from __future__ import annotations

from typing import List, Optional

from ..net.node import Host
from ..sim.engine import Simulator
from ..transport.base import ConnectionCallbacks
from ..transport.tcp import TcpConnection, TcpStack

__all__ = ["TcpProxy", "ProxySession"]


class ProxySession:
    """One relayed client<->server pairing inside the proxy."""

    def __init__(self, proxy: "TcpProxy", client_conn: TcpConnection):
        self.proxy = proxy
        self.client_conn = client_conn
        self.upstream: Optional[TcpConnection] = None
        self.bytes_relayed = 0
        self._pending = 0  # received from client before upstream was ready
        self._client_closed = False

    @property
    def buffered_bytes(self) -> int:
        """Bytes held inside the proxy for this session.

        Counts data read off the client connection but not yet acknowledged
        by the server, plus anything still sitting unread in the client
        connection's receive buffer.
        """
        upstream_backlog = self.upstream.send_backlog if self.upstream else 0
        return (self._pending + upstream_backlog
                + self.client_conn.unread_bytes)

    # -- client side -----------------------------------------------------

    def on_client_data(self, conn: TcpConnection, nbytes: int) -> None:
        """Bytes arrived from the client."""
        if self.proxy.buffer_limit is None:
            # Unlimited mode: nothing waits unread, relay it all at once.
            self._relay(nbytes)
        else:
            self._pump()

    def on_client_close(self, conn: TcpConnection) -> None:
        self._client_closed = True
        self._maybe_close_upstream()

    def _maybe_close_upstream(self) -> None:
        if (self._client_closed and self.upstream is not None
                and self.upstream.established
                and self._pending == 0
                and self.client_conn.unread_bytes == 0):
            if not self.upstream.closing:
                self.upstream.close()

    # -- upstream side ----------------------------------------------------

    def on_upstream_connected(self, conn: TcpConnection) -> None:
        if self._pending:
            conn.send(self._pending)
            self.bytes_relayed += self._pending
            self._pending = 0
        self._pump()

    def on_upstream_progress(self, newly_acked: int) -> None:
        """Server acknowledged data: room may have opened for more."""
        self._pump()
        self._maybe_close_upstream()

    # -- relay machinery ---------------------------------------------------

    def _relay(self, nbytes: int) -> None:
        if nbytes <= 0:
            return
        if self.upstream is None or not self.upstream.established:
            self._pending += nbytes
            return
        self.upstream.send(nbytes)
        self.bytes_relayed += nbytes

    def _pump(self) -> None:
        """Bounded-buffer mode: pull from the client only within the limit."""
        if self.proxy.buffer_limit is None:
            return
        if self.upstream is None or not self.upstream.established:
            return
        room = self.proxy.buffer_limit - self.upstream.send_backlog
        take = min(room, self.client_conn.unread_bytes)
        if take > 0:
            self.client_conn.consume(take)
            self._relay(take)


class TcpProxy(Host):
    """A host that terminates client TCP connections and re-originates them.

    Both legs run TCP Reno.  In bounded mode the receive window advertised
    to clients is ``buffer_limit``.

    Args:
        listen_port: port clients connect to.
        server_address / server_port: where relayed connections go.
        buffer_limit: per-session proxy buffer in bytes, or None for
            unbounded (the two modes of Figure 2).
    """

    def __init__(self, sim: Simulator, name: str, listen_port: int = 80,
                 server_port: int = 80,
                 buffer_limit: Optional[int] = None):
        super().__init__(sim, name)
        self.listen_port = listen_port
        self.server_port = server_port
        self.buffer_limit = buffer_limit
        self.server_address: Optional[int] = None
        self.sessions: List[ProxySession] = []
        self.stack = TcpStack(self)
        self.stack.listen(listen_port, self._accept,
                          recv_buffer=buffer_limit)

    def set_server(self, server_address: int) -> None:
        """Configure the upstream server (after the topology is built)."""
        self.server_address = server_address

    def total_buffered_bytes(self) -> int:
        """Aggregate proxy buffer occupancy across sessions (Figure 2's y-axis)."""
        return sum(session.buffered_bytes for session in self.sessions)

    def _accept(self, client_conn: TcpConnection) -> ConnectionCallbacks:
        if self.server_address is None:
            raise RuntimeError(f"proxy {self.name}: set_server() not called")
        session = ProxySession(self, client_conn)
        self.sessions.append(session)
        upstream = self.stack.connect(
            self.server_address, self.server_port,
            ConnectionCallbacks(
                on_connected=session.on_upstream_connected))
        upstream.on_send_progress = session.on_upstream_progress
        session.upstream = upstream
        return ConnectionCallbacks(on_data=session.on_client_data,
                                   on_close=session.on_client_close)
