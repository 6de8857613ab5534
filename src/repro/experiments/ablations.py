"""Ablations of MTP's design choices (docs/ARCHITECTURE.md section "Key
design decisions").

* **Pathlet granularity** — per-link pathlets vs one global pathlet on the
  Figure-5 scenario.  One pathlet means one shared window: MTP degrades to
  TCP-like behaviour, quantifying how much of the Figure-5 win comes from
  per-pathlet state (the paper's central mechanism).
* **Feedback type** — the same bottleneck speaking ECN vs explicit-rate vs
  delay feedback, showing the multi-algorithm machinery end to end.
* **Message atomicity** — the Figure-6 MTP balancer with and without
  intra-message spraying.
"""

from __future__ import annotations

import copy
from typing import Dict, Optional

from ..core import BlobSender, MtpStack
from ..net import PeriodicSampler, RateMonitor
from ..sim import Simulator, microseconds, milliseconds
from .common import INCAST_RATE_BPS, build_incast_star
from .fig5_multipath import Fig5Config, Fig5Result, run_fig5
from .fig6_loadbalance import Fig6Config, Fig6Result, run_fig6

__all__ = ["ablate_pathlet_granularity", "ablate_feedback_types",
           "ablate_message_atomicity", "FEEDBACK_SOURCES"]


def ablate_pathlet_granularity(config: Optional[Fig5Config] = None,
                               ) -> Dict[str, Fig5Result]:
    """Figure-5 scenario: per-link pathlets vs a single global pathlet."""
    base = config or Fig5Config()
    results = {}
    for mode in ("per_link", "single"):
        variant = copy.copy(base)
        variant.pathlet_mode = mode
        results[mode] = run_fig5("mtp", variant)
    return results


FEEDBACK_SOURCES = ("ecn", "rate", "delay")
#: Senders sharing the bottleneck in the feedback-type ablation.
N_COMPETING = 4


def _feedback_point(kind: str, duration_ns: int) -> Dict:
    """One feedback-dialect point."""
    sim = Simulator()
    sink, senders, port = build_incast_star(sim, N_COMPETING, kind)
    monitor = RateMonitor(sim, microseconds(50))
    sink_stack = MtpStack(sink)
    sink_stack.endpoint(
        port=100,
        on_message=lambda ep, msg: monitor.record_bytes(msg.size))
    for host in senders:
        endpoint = MtpStack(host).endpoint()
        BlobSender(endpoint, sink.address, 100, total_bytes=1 << 40,
                   window_messages=64)
    queue = PeriodicSampler(sim, microseconds(10), lambda: len(port.queue))
    sim.run(until=duration_ns)
    return {
        "goodput_bps": monitor.mean_bps(microseconds(500), duration_ns),
        "peak_queue_pkts": queue.max_value(),
        "capacity_bps": INCAST_RATE_BPS,
    }


def ablate_feedback_types(duration_ns: int = milliseconds(4),
                          ) -> Dict[str, Dict]:
    """One bottleneck, three feedback dialects, same workload.

    ``N_COMPETING`` hosts blast blobs through a shared 10 Gbps link whose
    pathlet speaks ECN, explicit rate, or delay feedback.  Reports mean
    goodput and peak queue for each — all three should fill the link while
    the signal-specific controllers keep the queue bounded.
    """
    return {kind: _feedback_point(kind, duration_ns)
            for kind in FEEDBACK_SOURCES}


def ablate_message_atomicity(config: Optional[Fig6Config] = None,
                             ) -> Dict[str, Fig6Result]:
    """Figure-6 MTP balancer with message atomicity on vs off."""
    base = config or Fig6Config()
    results = {}
    for label, spray in (("atomic", False), ("sprayed", True)):
        variant = copy.copy(base)
        variant.mtp_intra_message_spray = spray
        results[label] = run_fig6("mtp_lb", variant)
    return results
