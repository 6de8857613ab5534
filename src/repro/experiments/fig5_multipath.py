"""Figure 5: multipath congestion control under path alternation.

Two paths — fast (100 Gbps) and slow (10 Gbps) — between a sender and a
receiver; the first-hop switch alternates between them every 384 us (an
optical switch or a dynamic load balancer).  Links have 1 us delay; switch
buffers hold 128 packets with a 20-packet ECN threshold.  A long-lasting
flow runs and goodput is sampled every 32 us.

DCTCP keeps one window that is always tuned for the *previous* path: too
small after switching to the fast path (under-utilization), too large after
switching to the slow path (queue build-up, marks, deep backoff).  MTP keeps
a separate window per pathlet, so each flip lands on an already-converged
window.  The paper reports MTP converging faster and ~33% higher goodput.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core import (BlobReceiver, BlobSender, DelayFeedbackSource,
                    EcnFeedbackSource, MtpStack, PathletRegistry,
                    RateFeedbackSource)
from ..net import (AlternatingSelector, DropTailQueue, Network, RateMonitor)
from ..sim import Simulator, gbps, microseconds, milliseconds
from ..transport import ConnectionCallbacks, TcpStack
from .common import series_stats

__all__ = ["Fig5Config", "Fig5Result", "run_fig5", "compare_fig5"]


class Fig5Config:
    """Parameters of the Figure-5 scenario (defaults match the paper)."""

    def __init__(self, fast_rate_bps: int = gbps(100),
                 slow_rate_bps: int = gbps(10),
                 flip_period_ns: int = microseconds(384),
                 link_delay_ns: int = microseconds(1),
                 buffer_packets: int = 128,
                 ecn_threshold: int = 20,
                 sample_interval_ns: int = microseconds(32),
                 duration_ns: int = milliseconds(8),
                 warmup_ns: int = microseconds(500),
                 pathlet_mode: str = "per_link",
                 tcp_min_rto_ns: int = milliseconds(1),
                 mtp_feedback: str = "ecn"):
        if pathlet_mode not in ("per_link", "single"):
            raise ValueError("pathlet_mode must be 'per_link' or 'single'")
        if mtp_feedback not in ("ecn", "delay", "rate"):
            raise ValueError("mtp_feedback must be ecn, delay, or rate")
        self.fast_rate_bps = fast_rate_bps
        self.slow_rate_bps = slow_rate_bps
        self.flip_period_ns = flip_period_ns
        self.link_delay_ns = link_delay_ns
        self.buffer_packets = buffer_packets
        self.ecn_threshold = ecn_threshold
        self.sample_interval_ns = sample_interval_ns
        self.duration_ns = duration_ns
        self.warmup_ns = warmup_ns
        #: "single" collapses both links into one pathlet id — the ablation
        #: that makes MTP behave like per-flow TCP (Section 4).
        self.pathlet_mode = pathlet_mode
        #: TCP minimum RTO.  Real stacks use 1 ms - 200 ms; the DCTCP
        #: baseline's goodput here is sensitive to it (see EXPERIMENTS.md).
        self.tcp_min_rto_ns = tcp_min_rto_ns
        #: Feedback dialect the pathlets speak to MTP: "ecn" (DCTCP-like),
        #: "delay" (Swift-like), or "rate" (RCP-like) — Section 4's point
        #: that MTP can implement any of these algorithms.
        self.mtp_feedback = mtp_feedback


class Fig5Result:
    """Goodput series and summary for one protocol run."""

    def __init__(self, protocol: str, series: List[Tuple[int, float]],
                 config: Fig5Config):
        self.protocol = protocol
        self.series = series
        self.config = config
        self.stats = series_stats(series, warmup_ns=config.warmup_ns)

    @property
    def mean_goodput_bps(self) -> float:
        return self.stats["mean"]

    def unconverged_phases(self) -> int:
        """How many flip phases never reached 80% of their plateau."""
        from ..stats import convergence_times
        times = convergence_times(self.series, self.config.flip_period_ns,
                                  target_fraction=0.8,
                                  start_ns=self.config.warmup_ns)
        return sum(1 for time in times if time is None)

    def __repr__(self) -> str:
        return (f"<Fig5Result {self.protocol} "
                f"mean={self.mean_goodput_bps / 1e9:.2f}Gbps>")


def _build(sim: Simulator, config: Fig5Config):
    net = Network(sim)
    sender = net.add_host("sender")
    receiver = net.add_host("receiver")
    sw1 = net.add_switch(
        "sw1", selector=AlternatingSelector(config.flip_period_ns))
    sw2 = net.add_switch("sw2")
    queue = lambda: DropTailQueue(config.buffer_packets,
                                  config.ecn_threshold)
    net.connect(sender, sw1, config.fast_rate_bps, config.link_delay_ns)
    fast = net.connect(sw1, sw2, config.fast_rate_bps, config.link_delay_ns,
                       queue_factory=queue)
    slow = net.connect(sw1, sw2, config.slow_rate_bps, config.link_delay_ns,
                       queue_factory=queue)
    net.connect(sw2, receiver, config.fast_rate_bps, config.link_delay_ns)
    net.install_routes()
    return net, sender, receiver, fast, slow


def _feedback_source_factory(sim: Simulator, config: Fig5Config):
    if config.mtp_feedback == "delay":
        return lambda port: DelayFeedbackSource()
    if config.mtp_feedback == "rate":
        return lambda port: RateFeedbackSource(
            sim, port, avg_rtt_ns=4 * config.link_delay_ns + 4000)
    return lambda port: EcnFeedbackSource(config.ecn_threshold)


def run_fig5(protocol: str, config: Optional[Fig5Config] = None,
             sim: Optional[Simulator] = None) -> Fig5Result:
    """Run the scenario with ``protocol`` in {"dctcp", "mtp", "mptcp"}.

    ``mptcp`` tests the related-work claim: MPTCP's subflows cannot pin
    paths when the *network* controls routing (the alternating first hop
    moves every subflow at once), so its coupled windows mis-converge just
    like single-path TCP's.
    """
    if protocol not in ("dctcp", "mtp", "mptcp"):
        raise ValueError(f"unknown protocol {protocol!r}")
    config = config or Fig5Config()
    sim = sim or Simulator()
    net, sender, receiver, fast, slow = _build(sim, config)
    monitor = RateMonitor(sim, config.sample_interval_ns)

    if protocol == "mtp":
        registry = PathletRegistry(sim)
        source = _feedback_source_factory(sim, config)
        if config.pathlet_mode == "per_link":
            registry.register(fast.port_a, source(fast.port_a))
            registry.register(slow.port_a, source(slow.port_a))
        else:
            # "single" mode: both links grouped into one pathlet, so the
            # end-host cannot tell them apart (TCP-equivalent ablation).
            shared_id = registry.register(fast.port_a, source(fast.port_a))
            registry.register(slow.port_a, source(slow.port_a),
                              pathlet_id=shared_id)
        stack_sender = MtpStack(sender)
        stack_receiver = MtpStack(receiver)
        receiver_app = BlobReceiver()

        def count_bytes(endpoint, message):
            monitor.record_bytes(message.size)
            receiver_app.on_message(endpoint, message)

        stack_receiver.endpoint(port=100, on_message=count_bytes)
        sender_endpoint = stack_sender.endpoint()
        # A "long-lasting flow": an effectively unbounded blob.
        BlobSender(sender_endpoint, receiver.address, 100,
                   total_bytes=1 << 40, window_messages=512)
    elif protocol == "mptcp":
        from ..transport import MptcpStack
        stack_sender = MptcpStack(sender)
        stack_receiver = MptcpStack(receiver)
        stack_receiver.listen(
            80, lambda meta: ConnectionCallbacks(
                on_data=lambda m, nbytes: monitor.record_bytes(nbytes)),
            variant="dctcp", min_rto_ns=config.tcp_min_rto_ns)
        stack_sender.connect(
            receiver.address, 80,
            ConnectionCallbacks(on_connected=lambda m: m.send(1 << 40)),
            n_subflows=2, variant="dctcp",
            min_rto_ns=config.tcp_min_rto_ns)
    else:
        stack_sender = TcpStack(sender)
        stack_receiver = TcpStack(receiver)
        stack_receiver.listen(
            80, lambda conn: ConnectionCallbacks(
                on_data=lambda c, nbytes: monitor.record_bytes(nbytes)),
            variant="dctcp", min_rto_ns=config.tcp_min_rto_ns)
        stack_sender.connect(
            receiver.address, 80,
            ConnectionCallbacks(on_connected=lambda c: c.send(1 << 40)),
            variant="dctcp", min_rto_ns=config.tcp_min_rto_ns)

    sim.run(until=config.duration_ns)
    return Fig5Result(protocol, monitor.series_bps(config.duration_ns),
                      config)


def compare_fig5(config: Optional[Fig5Config] = None
                 ) -> Dict[str, Fig5Result]:
    """Run both protocols on identical configurations."""
    config = config or Fig5Config()
    return {protocol: run_fig5(protocol, config)
            for protocol in ("dctcp", "mtp")}
