"""Figure 7: per-entity isolation across tenants.

Two tenants share a 100 Gbps / 10 us bottleneck.  Tenant 2 runs 8x as many
message streams as tenant 1.  Three systems:

* **shared** — DCTCP into one shared ECN queue: per-flow fairness hands
  tenant 2 roughly 8x the bandwidth (~80 vs ~10 Gbps in the paper).
* **separate** — per-tenant DRR queues: equal split, but one queue per
  tenant at the switch.
* **fair_share** — MTP: per-(pathlet, TC) congestion control at the hosts
  plus a single shared queue with per-entity ingress accounting
  (:class:`~repro.net.queues.FairShareQueue`).  Equal split with O(tenants)
  switch state instead of per-tenant queues.

The driver reports per-tenant goodput and the Jain fairness index.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core import EcnFeedbackSource, PathletRegistry
from ..net import Network, RateMonitor
from ..policies import TrafficClassMap, isolation_queue_factory
from ..sim import Simulator, gbps, microseconds, milliseconds
from ..stats import jain_fairness
from .common import start_long_flows

__all__ = ["Fig7Config", "Fig7Result", "run_fig7", "compare_fig7",
           "SYSTEMS"]

SYSTEMS = ("shared", "separate", "fair_share")

#: One-way delay of the bottleneck link (paper: 10 us).
BOTTLENECK_DELAY_NS = microseconds(10)
#: Rate of the host links.
EDGE_RATE_BPS = gbps(100)
#: Bottleneck queue in packets, and its ECN marking threshold.
BUFFER_PACKETS = 256
ECN_THRESHOLD = 20
#: Streams per tenant: tenant 2 runs 8x as many as tenant 1 (the paper's
#: ratio).
STREAMS = {"tenant1": 2, "tenant2": 16}


class Fig7Config:
    """Parameters of the isolation experiment (paper: 100 Gbps / 10 us)."""

    def __init__(self, bottleneck_rate_bps: int = gbps(100),
                 duration_ns: int = milliseconds(6),
                 warmup_ns: int = milliseconds(1)):
        self.bottleneck_rate_bps = bottleneck_rate_bps
        self.duration_ns = duration_ns
        self.warmup_ns = warmup_ns


class Fig7Result:
    """Per-tenant goodput under one isolation system."""

    def __init__(self, system: str, tenant_goodput_bps: Dict[str, float],
                 config: Fig7Config):
        self.system = system
        self.tenant_goodput_bps = tenant_goodput_bps
        self.config = config

    @property
    def fairness(self) -> float:
        return jain_fairness(list(self.tenant_goodput_bps.values()))

    def throughput_ratio(self) -> float:
        """Tenant 2's goodput over tenant 1's."""
        t1 = self.tenant_goodput_bps.get("tenant1", 0.0)
        t2 = self.tenant_goodput_bps.get("tenant2", 0.0)
        return t2 / t1 if t1 else float("inf")

    def __repr__(self) -> str:
        shares = ", ".join(f"{tenant}={bps / 1e9:.1f}G" for tenant, bps
                           in sorted(self.tenant_goodput_bps.items()))
        return f"<Fig7Result {self.system} {shares}>"


def _build(sim: Simulator, config: Fig7Config, system: str):
    net = Network(sim)
    sw1 = net.add_switch("sw1")
    sw2 = net.add_switch("sw2")
    queue_factory = isolation_queue_factory(system, BUFFER_PACKETS,
                                            ECN_THRESHOLD)
    net.connect(sw1, sw2, config.bottleneck_rate_bps,
                BOTTLENECK_DELAY_NS, queue_factory=queue_factory)
    hosts = {}
    for tenant in ("tenant1", "tenant2"):
        sender = net.add_host(f"{tenant}_tx")
        receiver = net.add_host(f"{tenant}_rx")
        net.connect(sender, sw1, EDGE_RATE_BPS, microseconds(1))
        net.connect(sw2, receiver, EDGE_RATE_BPS, microseconds(1))
        hosts[tenant] = (sender, receiver)
    net.install_routes()
    bottleneck_port = sw1.port_to(sw2)
    return net, hosts, bottleneck_port


def run_fig7(system: str, config: Optional[Fig7Config] = None,
             sim: Optional[Simulator] = None) -> Fig7Result:
    """Run one isolation system and measure per-tenant goodput."""
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; expected {SYSTEMS}")
    config = config or Fig7Config()
    sim = sim or Simulator()
    net, hosts, bottleneck_port = _build(sim, config, system)
    monitors = {tenant: RateMonitor(sim, microseconds(100))
                for tenant in hosts}

    protocol = "dctcp"
    if system == "fair_share":
        protocol = "mtp"
        tc_map = TrafficClassMap({"tenant1": 0, "tenant2": 1})
        PathletRegistry(sim).register(bottleneck_port,
                                      EcnFeedbackSource(ECN_THRESHOLD),
                                      tc_classifier=tc_map.classify)
    for tenant, (sender, receiver) in hosts.items():
        start_long_flows(protocol, sender, receiver,
                         monitors[tenant].record_bytes, STREAMS[tenant],
                         128, tenant)

    sim.run(until=config.duration_ns)
    goodput = {tenant: monitor.mean_bps(config.warmup_ns,
                                        config.duration_ns)
               for tenant, monitor in monitors.items()}
    return Fig7Result(system, goodput, config)


def compare_fig7(config: Optional[Fig7Config] = None
                 ) -> Dict[str, Fig7Result]:
    """Run all three systems with identical tenant workloads."""
    config = config or Fig7Config()
    return {system: run_fig7(system, config) for system in SYSTEMS}
