"""Figure 2: the TCP-termination trade-off at a proxy.

A proxy terminates client TCP connections and re-originates them toward a
server behind a slower link (100 Gbps in, 40 Gbps out in the paper).  Two
modes:

* unlimited receive window — the proxy must buffer the rate difference;
  occupancy grows without bound (~60 Gbps/8 per second of transfer);
* limited receive window — the buffer is capped, but the client stalls on
  a closed window: head-of-line blocking, and the fast link sits idle.

The driver records the proxy buffer occupancy over time and the client-side
goodput, the two axes of the paper's figure.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Tuple

from ..net import PeriodicSampler, build_proxy_chain
from ..offloads.proxy import TcpProxy
from ..sim import Simulator, gbps, microseconds, milliseconds
from ..transport import ConnectionCallbacks, TcpStack
from .common import TCP_MIN_RTO_NS

__all__ = ["Fig2Config", "Fig2Result", "run_fig2", "compare_fig2"]


class Fig2Config:
    """Parameters of the proxy experiment (paper: 100 -> 40 Gbps)."""

    def __init__(self, client_rate_bps: int = gbps(100),
                 server_rate_bps: int = gbps(40),
                 link_delay_ns: int = microseconds(5),
                 transfer_bytes: int = 256 * 1024 * 1024,
                 duration_ns: int = milliseconds(6),
                 sample_interval_ns: int = microseconds(50),
                 buffer_limit: Optional[int] = None):
        self.client_rate_bps = client_rate_bps
        self.server_rate_bps = server_rate_bps
        self.link_delay_ns = link_delay_ns
        self.transfer_bytes = transfer_bytes
        self.duration_ns = duration_ns
        self.sample_interval_ns = sample_interval_ns
        #: None = unlimited receive window; bytes = bounded proxy buffer.
        self.buffer_limit = buffer_limit


class Fig2Result:
    """Buffer-occupancy trace and throughput summary for one mode."""

    def __init__(self, mode: str, buffer_series: List[Tuple[int, float]],
                 server_received: int, client_sent: int, duration_ns: int):
        self.mode = mode
        self.buffer_series = buffer_series
        self.server_received = server_received
        self.client_sent = client_sent
        self.duration_ns = duration_ns

    @property
    def peak_buffer_bytes(self) -> float:
        return max((value for _, value in self.buffer_series), default=0.0)

    @property
    def server_goodput_bps(self) -> float:
        return self.server_received * 8 * 1e9 / self.duration_ns

    @property
    def client_goodput_bps(self) -> float:
        """Rate at which the client actually pushed bytes into the proxy."""
        return self.client_sent * 8 * 1e9 / self.duration_ns

    def buffer_growth_bps(self) -> float:
        """Linear-fit growth rate of the buffer trace, in bits/second."""
        if len(self.buffer_series) < 2:
            return 0.0
        (t0, v0), (t1, v1) = self.buffer_series[0], self.buffer_series[-1]
        if t1 == t0:
            return 0.0
        return (v1 - v0) * 8 * 1e9 / (t1 - t0)

    def __repr__(self) -> str:
        return (f"<Fig2Result {self.mode} peak={self.peak_buffer_bytes:.0f}B "
                f"server={self.server_goodput_bps / 1e9:.1f}Gbps>")


def run_fig2(config: Optional[Fig2Config] = None,
             sim: Optional[Simulator] = None) -> Fig2Result:
    """Run one proxy mode; ``config.buffer_limit`` selects it."""
    config = config or Fig2Config()
    sim = sim or Simulator()
    proxy = TcpProxy(sim, "proxy", buffer_limit=config.buffer_limit)
    net, client, server = build_proxy_chain(
        sim, proxy, config.client_rate_bps, config.server_rate_bps,
        config.link_delay_ns)
    proxy.set_server(server.address)
    client_stack = TcpStack(client)
    server_stack = TcpStack(server)
    received = [0]
    server_stack.listen(
        80, lambda conn: ConnectionCallbacks(
            on_data=lambda c, nbytes: received.__setitem__(
                0, received[0] + nbytes)),
        min_rto_ns=TCP_MIN_RTO_NS)
    client_conn = client_stack.connect(
        proxy.address, proxy.listen_port,
        ConnectionCallbacks(
            on_connected=lambda conn: conn.send(config.transfer_bytes)),
        min_rto_ns=TCP_MIN_RTO_NS)
    sampler = PeriodicSampler(sim, config.sample_interval_ns,
                              proxy.total_buffered_bytes)
    sim.run(until=config.duration_ns)
    mode = "unlimited" if config.buffer_limit is None else \
        f"limited({config.buffer_limit}B)"
    return Fig2Result(mode, sampler.samples, received[0],
                      client_conn.snd_una, config.duration_ns)


def compare_fig2(config: Optional[Fig2Config] = None,
                 limited_buffer_bytes: int = 256 * 1024):
    """Run both modes on the same configuration; returns a dict by mode."""
    base = config or Fig2Config()
    unlimited = run_fig2(base)
    limited_config = copy.copy(base)
    limited_config.buffer_limit = limited_buffer_bytes
    limited = run_fig2(limited_config)
    return {"unlimited": unlimited, "limited": limited}
