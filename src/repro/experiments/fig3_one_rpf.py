"""Figure 3: one request per flow breaks congestion control.

Four hosts on a 100 Gbps dumbbell send 16 KB messages.  With a *new TCP
connection per message*, every message pays a handshake and starts in
initial-window slow start with no congestion history: aggregate throughput
is noisy and the link underutilized.  A persistent connection per host
(many requests per flow) keeps congestion state and fills the link — but,
as Section 2 argues, then loses inter-message independence.

The driver runs one mode and reports the throughput time series; the
runner compares "per_message" against "persistent".
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..net import DropTailQueue, RateMonitor, build_dumbbell
from ..sim import Simulator, gbps, microseconds, milliseconds
from ..transport import ConnectionCallbacks, TcpStack
from .common import TCP_MIN_RTO_NS, series_stats

__all__ = ["Fig3Config", "Fig3Result", "run_fig3", "compare_fig3"]

#: Sender/receiver pairs on the dumbbell, the rate and delay of every
#: link, its queue in packets, and the size of each message (the figure's
#: setup).
N_HOSTS = 4
LINK_RATE_BPS = gbps(100)
LINK_DELAY_NS = microseconds(1)
BUFFER_PACKETS = 128
MESSAGE_BYTES = 16 * 1024
#: Throughput bin width, and the start-up span left out of the statistics.
SAMPLE_INTERVAL_NS = microseconds(32)
WARMUP_NS = microseconds(200)


class Fig3Config:
    """Parameters of the one-request-per-flow experiment."""

    def __init__(self, duration_ns: int = milliseconds(4),
                 concurrency: int = 32):
        self.duration_ns = duration_ns
        #: Closed-loop message streams per host (per_message mode opens a
        #: fresh connection per message on each stream).
        self.concurrency = concurrency


class Fig3Result:
    """Aggregate throughput series for one connection policy."""

    def __init__(self, mode: str, series: List[Tuple[int, float]],
                 messages_completed: int, config: Fig3Config):
        self.mode = mode
        self.series = series
        self.messages_completed = messages_completed
        self.config = config
        self.stats = series_stats(series, warmup_ns=WARMUP_NS)

    @property
    def mean_throughput_bps(self) -> float:
        return self.stats["mean"]

    @property
    def throughput_cov(self) -> float:
        """Coefficient of variation — the "noisy behaviour" of Figure 3."""
        return self.stats["cov"]

    def __repr__(self) -> str:
        return (f"<Fig3Result {self.mode} "
                f"mean={self.mean_throughput_bps / 1e9:.1f}Gbps "
                f"cov={self.throughput_cov:.2f}>")


class _PerMessageSender:
    """Opens a fresh connection for every message, back to back."""

    def __init__(self, sim: Simulator, stack: TcpStack, dst_address: int,
                 counter: List[int]):
        self.sim = sim
        self.stack = stack
        self.dst_address = dst_address
        self.counter = counter
        self._launch()

    def _launch(self) -> None:
        def on_connected(conn):
            conn.send(MESSAGE_BYTES)
            conn.close()

        def on_finished(conn):
            self.counter[0] += 1
            self._launch()  # next message, next connection

        conn = self.stack.connect(
            self.dst_address, 80,
            ConnectionCallbacks(on_connected=on_connected),
            min_rto_ns=TCP_MIN_RTO_NS)
        conn.on_finished = on_finished


def run_fig3(mode: str, config: Optional[Fig3Config] = None,
             sim: Optional[Simulator] = None) -> Fig3Result:
    """Run with ``mode`` in {"per_message", "persistent"}."""
    if mode not in ("per_message", "persistent"):
        raise ValueError(f"unknown mode {mode!r}")
    config = config or Fig3Config()
    sim = sim or Simulator()
    net, senders, receivers = build_dumbbell(
        sim, N_HOSTS, edge_rate_bps=LINK_RATE_BPS,
        bottleneck_rate_bps=LINK_RATE_BPS,
        delay_ns=LINK_DELAY_NS,
        queue_factory=lambda: DropTailQueue(BUFFER_PACKETS))
    monitor = RateMonitor(sim, SAMPLE_INTERVAL_NS)
    completed = [0]
    for receiver in receivers:
        stack = TcpStack(receiver)
        stack.listen(80, lambda conn: ConnectionCallbacks(
            on_data=lambda c, nbytes: monitor.record_bytes(nbytes)),
            min_rto_ns=TCP_MIN_RTO_NS)
    for sender, receiver in zip(senders, receivers):
        stack = TcpStack(sender)
        if mode == "per_message":
            for _ in range(config.concurrency):
                _PerMessageSender(sim, stack, receiver.address, completed)
        else:
            # One long-lived connection streaming back-to-back messages.
            def on_connected(conn, counter=completed):
                def send_next():
                    if conn.send_backlog < 4 * MESSAGE_BYTES:
                        conn.send(MESSAGE_BYTES)
                        counter[0] += 1
                    sim.schedule(microseconds(1), send_next)

                send_next()

            stack.connect(receiver.address, 80,
                          ConnectionCallbacks(on_connected=on_connected),
                          min_rto_ns=TCP_MIN_RTO_NS)
    sim.run(until=config.duration_ns)
    return Fig3Result(mode, monitor.series_bps(config.duration_ns),
                      completed[0], config)


def compare_fig3(config: Optional[Fig3Config] = None):
    """Run both connection policies; returns a dict by mode."""
    config = config or Fig3Config()
    return {mode: run_fig3(mode, config)
            for mode in ("per_message", "persistent")}
