"""Transport-layer interfaces shared by TCP, UDP, and MTP endpoints.

A *stack* registers with a host under a protocol name and demultiplexes
received packets to its connections/endpoints.  Applications interact with
connections through small callback interfaces; payload content is not
modelled for stream transports (only byte counts), while MTP messages may
carry an opaque payload object for in-network offloads to inspect.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, List, Optional, Tuple

from ..net.node import Host
from ..net.packet import Packet
from ..sim.engine import Simulator

__all__ = ["TransportStack", "ConnectionCallbacks", "RtoEstimator", "Runs"]


class ConnectionCallbacks:
    """Application-side callbacks for a stream connection.

    Subclass or assign the attributes directly; all hooks default to no-ops.

    Attributes:
        on_connected: called once the connection is established.
        on_data: called with the number of newly delivered in-order bytes.
        on_close: called when the peer closes the connection.
        on_error: called with ``(conn, reason)`` when the transport gives
            up on the connection (handshake failure, retransmission limit
            reached) — the application-visible abort signal.
    """

    def __init__(self,
                 on_connected: Optional[Callable] = None,
                 on_data: Optional[Callable] = None,
                 on_close: Optional[Callable] = None,
                 on_error: Optional[Callable] = None):
        self.on_connected = on_connected or (lambda conn: None)
        self.on_data = on_data or (lambda conn, nbytes: None)
        self.on_close = on_close or (lambda conn: None)
        self.on_error = on_error or (lambda conn, reason: None)


class TransportStack:
    """Base class for per-host transport stacks."""

    protocol_name = "base"

    def __init__(self, host: Host):
        self.host = host
        self.sim: Simulator = host.sim
        host.register_protocol(self.protocol_name, self)

    def handle_packet(self, packet: Packet) -> None:
        """Dispatch a received packet (implemented by subclasses)."""
        raise NotImplementedError

    def send_packet(self, packet: Packet) -> bool:
        """Hand a packet to the host's network layer."""
        return self.host.send(packet)


class RtoEstimator:
    """RFC 6298 retransmission timeout: smoothed RTT, variance and backoff.

    ``rto`` is ``max(min_ns, srtt + 4 * rttvar)``, or ``4 * min_ns``
    before the first sample, doubled once per ``backoff`` step and capped
    at ``max_ns``.  The transport decides when a timeout backs off
    (``backoff += 1``) and when progress resets it (``backoff = 0``).
    """

    __slots__ = ("min_ns", "max_ns", "srtt", "rttvar", "backoff")

    def __init__(self, min_ns: int, max_ns: int):
        self.min_ns = min_ns
        self.max_ns = max(max_ns, min_ns)
        self.srtt: Optional[int] = None
        self.rttvar = 0
        self.backoff = 0

    def sample(self, now: int, ts_echo: int) -> Optional[int]:
        """Fold in the RTT of an echoed timestamp; returns it (or None)."""
        if ts_echo < 0 or now < ts_echo:
            return None
        rtt = now - ts_echo
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt // 2
        else:
            self.rttvar = (3 * self.rttvar + abs(self.srtt - rtt)) // 4
            self.srtt = (7 * self.srtt + rtt) // 8
        return rtt

    @property
    def rto(self) -> int:
        """The current, backed-off retransmission timeout."""
        # Compared, not ``min``/``max``: this runs for every ACK.
        srtt = self.srtt
        if srtt is None:
            base = 4 * self.min_ns
        else:
            base = srtt + 4 * self.rttvar
            if base < self.min_ns:
                base = self.min_ns
        base <<= self.backoff
        return base if base < self.max_ns else self.max_ns

    def __repr__(self) -> str:
        return (f"<RtoEstimator srtt={self.srtt} rttvar={self.rttvar} "
                f"backoff={self.backoff} rto={self.rto}>")


class Runs:
    """Received data that an in-order point has not reached yet.

    ``spans`` is a sorted list of disjoint, half-open ``(start, end)``
    tuples with touching spans merged, so it is also the list of blocks
    a receiver reports as received (TCP SACK blocks, QUIC ACK ranges).
    A TCP sender keeps the ranges it has seen SACKed in one too, and
    drops those a cumulative ACK covers with :meth:`drop_below`.
    """

    __slots__ = ("spans",)

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int]] = []

    def add(self, start: int, end: int) -> None:
        """File ``[start, end)``, merging it with the spans it touches."""
        if end <= start:
            return
        spans = self.spans
        # The first span that starts at or after ``start``, or the one
        # before it when that one reaches ``start``.
        first = bisect_left(spans, (start,))
        if first and spans[first - 1][1] >= start:
            first -= 1
            start = spans[first][0]
        last = first
        count = len(spans)
        while last < count and spans[last][0] <= end:
            if spans[last][1] > end:
                end = spans[last][1]
            last += 1
        spans[first:last] = [(start, end)]

    def advance(self, point: int) -> int:
        """Where contiguous data from ``point`` ends; drops the spans it
        absorbs, which are all those starting at or below that end."""
        spans = self.spans
        absorbed = 0
        for start, end in spans:
            if start > point:
                break
            if end > point:
                point = end
            absorbed += 1
        if absorbed:
            del spans[:absorbed]
        return point

    def drop_below(self, point: int) -> None:
        """Drop the spans that end at or below ``point``."""
        spans = self.spans
        dropped = 0
        for _start, end in spans:
            if end > point:
                break
            dropped += 1
        if dropped:
            del spans[:dropped]

    def __repr__(self) -> str:
        return f"<Runs {self.spans}>"
