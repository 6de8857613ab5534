"""Figure 6: load- and request-aware load balancing.

A sender and receiver are joined by two 100 Gbps paths, one with an extra
1 us of delay.  The workload is a mix of message sizes (10 KB up to a
configurable cap; the paper uses 1 GB) skewed toward short messages.  Three
systems place traffic on the paths:

* **ecmp** — DCTCP with a connection per message; flows hash onto paths.
  Hash collisions leave one path congested while the other idles.
* **spray** — DCTCP with per-packet spraying; perfect balance, but the
  delay difference reorders packets and triggers spurious retransmissions.
* **mtp_lb** — MTP with the message-aware selector: every message is
  atomic (no reordering) and placed by size on the least-backlogged path.

The paper reports the 99th-percentile flow (message) completion time, where
MTP wins; we regenerate that statistic per system.

Note the edge links run at 2x the path rate so the two-path fabric — not
the sender NIC — is the bottleneck the balancers are balancing.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..apps.workload import (LogUniformSize, MessageWorkload,
                             PoissonArrivals)
from ..core import EcnFeedbackSource, MtpStack, PathletRegistry
from ..net import (DropTailQueue, EcmpSelector, PacketSpraySelector,
                   build_two_path)
from ..offloads.lb import MessageAwareSelector
from ..sim import (KIB, MIB, SeedSequence, Simulator, gbps, microseconds,
                   milliseconds)
from ..stats import FctCollector
from ..transport import ConnectionCallbacks, TcpStack
from .common import TCP_MIN_RTO_NS

__all__ = ["Fig6Config", "Fig6Result", "run_fig6", "compare_fig6",
           "SYSTEMS"]

SYSTEMS = ("ecmp", "spray", "mtp_lb")


class Fig6Config:
    """Parameters of the load-balancing experiment."""

    def __init__(self, path_rate_bps: int = gbps(100),
                 extra_delay_ns: int = microseconds(1),
                 base_delay_ns: int = microseconds(1),
                 min_message_bytes: int = 10 * KIB,
                 max_message_bytes: int = 1 * MIB,
                 offered_load: float = 0.55,
                 duration_ns: int = milliseconds(8),
                 buffer_packets: int = 128,
                 ecn_threshold: int = 20,
                 seed: int = 1,
                 mtp_intra_message_spray: bool = False):
        self.path_rate_bps = path_rate_bps
        self.extra_delay_ns = extra_delay_ns
        self.base_delay_ns = base_delay_ns
        self.min_message_bytes = min_message_bytes
        #: The paper's mix extends to 1 GB; the default cap keeps a run in
        #: seconds of wall-clock.  The skew (and who wins) is preserved.
        self.max_message_bytes = max_message_bytes
        #: Fraction of the two-path capacity offered by the workload.
        self.offered_load = offered_load
        self.duration_ns = duration_ns
        self.buffer_packets = buffer_packets
        self.ecn_threshold = ecn_threshold
        self.seed = seed
        #: Ablation: let the MTP balancer spray packets of one message
        #: across paths (violating message atomicity).
        self.mtp_intra_message_spray = mtp_intra_message_spray

    def arrival_rate_per_sec(self) -> float:
        """Poisson message rate hitting the configured offered load."""
        sizes = LogUniformSize(self.min_message_bytes,
                               self.max_message_bytes)
        capacity_Bps = 2 * self.path_rate_bps / 8
        return self.offered_load * capacity_Bps / sizes.mean()


class Fig6Result:
    """FCT statistics for one system."""

    def __init__(self, system: str, fct: FctCollector,
                 messages_offered: int, config: Fig6Config):
        self.system = system
        self.fct = fct
        self.messages_offered = messages_offered
        self.config = config

    @property
    def messages_completed(self) -> int:
        return len(self.fct)

    def p99_fct_ns(self) -> float:
        return self.fct.tail(99)

    def p50_fct_ns(self) -> float:
        return self.fct.tail(50)

    def __repr__(self) -> str:
        return (f"<Fig6Result {self.system} n={self.messages_completed} "
                f"p99={self.p99_fct_ns() / 1e6:.2f}ms>")


def run_fig6(system: str, config: Optional[Fig6Config] = None,
             sim: Optional[Simulator] = None) -> Fig6Result:
    """Run one balancing system over the common workload."""
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; expected {SYSTEMS}")
    config = config or Fig6Config()
    sim = sim or Simulator()
    if system == "ecmp":
        selector = EcmpSelector()
    elif system == "spray":
        selector = PacketSpraySelector()
    elif config.mtp_intra_message_spray:
        selector = PacketSpraySelector()
    else:
        selector = MessageAwareSelector()
    net, sender, receiver, sw1, sw2 = build_two_path(
        sim, config.path_rate_bps, config.path_rate_bps,
        config.base_delay_ns, config.base_delay_ns + config.extra_delay_ns,
        2 * config.path_rate_bps, config.base_delay_ns,
        queue_factory=lambda: DropTailQueue(config.buffer_packets,
                                            config.ecn_threshold),
        selector=selector)
    fct = FctCollector()
    seeds = SeedSequence(config.seed)
    sizes = LogUniformSize(config.min_message_bytes,
                           config.max_message_bytes)
    arrivals = PoissonArrivals(config.arrival_rate_per_sec())

    if system in ("ecmp", "spray"):
        sender_stack = TcpStack(sender)
        receiver_stack = TcpStack(receiver)
        receiver_stack.listen(80, lambda conn: ConnectionCallbacks(),
                              variant="dctcp",
                              min_rto_ns=TCP_MIN_RTO_NS)

        def submit(size: int) -> None:
            start = sim.now

            def on_connected(conn):
                conn.send(size)
                conn.close()

            conn = sender_stack.connect(
                receiver.address, 80,
                ConnectionCallbacks(on_connected=on_connected),
                variant="dctcp", min_rto_ns=TCP_MIN_RTO_NS)
            conn.on_finished = lambda c, start=start: fct.record(
                sim.now - start)
    else:
        registry = PathletRegistry(sim)
        for path in net.links[1:3]:
            registry.register(path.port_a,
                              EcnFeedbackSource(config.ecn_threshold))
        sender_stack = MtpStack(sender)
        receiver_stack = MtpStack(receiver)
        receiver_stack.endpoint(port=100)
        endpoint = sender_stack.endpoint()

        def submit(size: int) -> None:
            start = sim.now
            endpoint.send_message(
                receiver.address, 100, size,
                on_complete=lambda state, start=start: fct.record(
                    sim.now - start))

    workload = MessageWorkload(sim, seeds.stream("fig6"), sizes, arrivals,
                               submit,
                               stop_at_ns=config.duration_ns
                               - milliseconds(1))
    workload.start()
    sim.run(until=config.duration_ns)
    return Fig6Result(system, fct, workload.generated, config)


def compare_fig6(config: Optional[Fig6Config] = None
                 ) -> Dict[str, Fig6Result]:
    """Run all three systems on the identical workload."""
    config = config or Fig6Config()
    return {system: run_fig6(system, config) for system in SYSTEMS}
