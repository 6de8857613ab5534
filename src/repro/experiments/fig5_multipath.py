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

from ..core import PathletRegistry
from ..net import AlternatingSelector, DropTailQueue, RateMonitor, \
    build_two_path
from ..sim import Simulator, gbps, microseconds, milliseconds
from .common import feedback_source, series_stats, start_long_flows

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
    net, sender, receiver, sw1, sw2 = build_two_path(
        sim, config.fast_rate_bps, config.slow_rate_bps,
        config.link_delay_ns, config.link_delay_ns, config.fast_rate_bps,
        config.link_delay_ns,
        queue_factory=lambda: DropTailQueue(config.buffer_packets,
                                            config.ecn_threshold),
        selector=AlternatingSelector(config.flip_period_ns))
    monitor = RateMonitor(sim, config.sample_interval_ns)

    if protocol == "mtp":
        fast, slow = (path.port_a for path in net.links[1:3])
        source = lambda port: feedback_source(
            config.mtp_feedback, sim, port, config.ecn_threshold,
            4 * config.link_delay_ns + 4000)
        registry = PathletRegistry(sim)
        fast_id = registry.register(fast, source(fast))
        # "single" mode groups both links into one pathlet, so the
        # end-host cannot tell them apart (TCP-equivalent ablation).
        registry.register(slow, source(slow), pathlet_id=(
            fast_id if config.pathlet_mode == "single" else None))
    start_long_flows(protocol, sender, receiver, monitor.record_bytes,
                     1, 512, None)

    sim.run(until=config.duration_ns)
    return Fig5Result(protocol, monitor.series_bps(config.duration_ns),
                      config)


def compare_fig5(config: Optional[Fig5Config] = None
                 ) -> Dict[str, Fig5Result]:
    """Run both protocols on identical configurations."""
    config = config or Fig5Config()
    return {protocol: run_fig5(protocol, config)
            for protocol in ("dctcp", "mtp")}
