"""Figure 8: transport recovery under link failure and offload migration.

A sender and a receiver are joined by two equal-rate parallel paths
through ``sw1``/``sw2``.  ``sw1`` runs a :class:`~repro.net.routing
.FailoverSelector`: all traffic rides the primary path until its carrier
drops, then (after a 50 us loss-of-light detection delay) fails over to
the backup.  A scripted :class:`~repro.chaos.ChaosSchedule` then applies
the adversity:

* ``t=1.5 ms`` — the primary link goes down (packets in flight are lost);
* ``t=3.0 ms`` — the primary link comes back;
* ``t=4.0 ms`` — a stateful telemetry offload migrates from ``sw1`` to
  ``sw2`` via its ``on_migrate`` handoff (counters must survive);
* ``t=4.3..4.8 ms`` — a payload-corruption window on ``sw2`` (corrupted
  packets are detected by the receiver's checksum and dropped).

Both protocols see the *same* network repair (same selector, same
detection delay), so the goodput contrast is purely transport-level:
DCTCP must wait out a conservative RTO (>= 1 ms), retransmit go-back-N
style, and slow-start again, while MTP's per-pathlet state retransmits
within its 100 us RTO floor onto the backup pathlet's already-converged
window — and its consecutive-loss failover excludes the dead pathlet via
``path_exclude`` even before the switch's own detection fires.  The
headline claim, ``fig8.mtp_recovers_faster`` in the runner's report:
**MTP's time-to-recovery is strictly below TCP's.**

Runs default to a :class:`~repro.analysis.SanitizingSimulator` with a
:class:`~repro.analysis.PacketLedger`, so every faulted packet must be
accounted (``link_down``, ``switch_crash``, ``checksum`` drop reasons)
and the run fails loudly on any leak.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis import ConservationReport, PacketLedger, SanitizingSimulator
from ..chaos import ChaosController, ChaosSchedule, FaultRecovery, \
    RecoveryMonitor
from ..core import EcnFeedbackSource, PathletRegistry
from ..net import DropTailQueue, FailoverSelector, Packet, build_two_path
from ..sim import Simulator, gbps, microseconds, milliseconds
from .common import attach_exclusion_lookup, series_stats, start_long_flows

__all__ = ["Fig8Config", "Fig8Result", "TelemetryOffload", "run_fig8",
           "compare_fig8"]

#: Host-link and core-path rates, the delay of every link, and each core
#: path's queue in packets with its ECN marking threshold.
EDGE_RATE_BPS = gbps(100)
PATH_RATE_BPS = gbps(40)
LINK_DELAY_NS = microseconds(1)
BUFFER_PACKETS = 128
ECN_THRESHOLD = 20
#: Seeds the chaos controller's corruption stream only.
SEED = 7


class Fig8Config:
    """Parameters of the failure/recovery scenario."""

    def __init__(self, detection_delay_ns: int = microseconds(50),
                 sample_interval_ns: int = microseconds(25),
                 flap_down_ns: int = milliseconds(1.5),
                 flap_up_ns: int = milliseconds(3),
                 migrate_ns: int = milliseconds(4),
                 corrupt_start_ns: int = milliseconds(4.3),
                 corrupt_stop_ns: int = milliseconds(4.8),
                 corrupt_probability: float = 0.01,
                 duration_ns: int = milliseconds(6)):
        #: How long the failover selector blackholes traffic before it
        #: notices loss of light and reroutes (both protocols pay it).
        self.detection_delay_ns = detection_delay_ns
        self.sample_interval_ns = sample_interval_ns
        self.flap_down_ns = flap_down_ns
        self.flap_up_ns = flap_up_ns
        self.migrate_ns = migrate_ns
        self.corrupt_start_ns = corrupt_start_ns
        self.corrupt_stop_ns = corrupt_stop_ns
        self.corrupt_probability = corrupt_probability
        self.duration_ns = duration_ns
        if not (flap_down_ns < flap_up_ns < migrate_ns
                < corrupt_start_ns < corrupt_stop_ns <= duration_ns):
            raise ValueError("fault timeline must be ordered and fit "
                             "inside the run")


class TelemetryOffload:
    """Stateful in-network counter whose state must survive migration.

    Counts every packet and byte it sees.  The chaos controller's
    ``offload_migrate`` fault calls :meth:`on_migrate` during the move;
    the counters ride along (a real offload would serialize flow tables
    or partial aggregates the same way), and the handoff is recorded so
    experiments can assert continuity.
    """

    def __init__(self) -> None:
        self.packets = 0
        self.bytes = 0
        #: ``(time-free) (src, dst)`` names per completed migration.
        self.migrations: List[Tuple[str, str]] = []

    def process(self, packet: Packet, switch, ingress):
        self.packets += 1
        self.bytes += packet.size
        return None  # observe only; the packet continues unmodified

    def on_migrate(self, src, dst) -> None:
        """Handoff hook: state stays attached to this instance."""
        self.migrations.append((src.name, dst.name))


class Fig8Result:
    """Goodput timeline plus per-fault recovery verdicts for one run."""

    def __init__(self, protocol: str, series: List[Tuple[int, float]],
                 recoveries: List[FaultRecovery], config: Fig8Config,
                 conservation: Optional[ConservationReport],
                 applied: List[Tuple[int, str, str]],
                 telemetry: TelemetryOffload, failovers: int,
                 retransmissions: int):
        self.protocol = protocol
        self.series = series
        self.recoveries = recoveries
        self.config = config
        #: Ledger audit (None when the caller supplied a plain simulator).
        self.conservation = conservation
        #: The chaos controller's applied-fault log, for replay digests.
        self.applied = applied
        self.telemetry = telemetry
        self.failovers = failovers
        self.retransmissions = retransmissions
        self.stats = series_stats(series,
                                  warmup_ns=microseconds(200))

    def recovery(self, label: str) -> Optional[FaultRecovery]:
        """The first recovery verdict for a fault with ``label``."""
        for verdict in self.recoveries:
            if verdict.label == label:
                return verdict
        return None

    @property
    def mean_goodput_bps(self) -> float:
        return self.stats["mean"]

    @property
    def link_down_ttr_ns(self) -> Optional[int]:
        """Time to recovery after the primary-link failure."""
        verdict = self.recovery("link_down")
        return verdict.time_to_recovery_ns if verdict else None

    def __repr__(self) -> str:
        ttr = self.link_down_ttr_ns
        return (f"<Fig8Result {self.protocol} "
                f"ttr={ttr if ttr is not None else 'never'}>")


def _schedule(config: Fig8Config) -> ChaosSchedule:
    return (ChaosSchedule()
            .link_flap("sw1", "sw2", config.flap_down_ns,
                       config.flap_up_ns, index=0)
            .offload_migrate(config.migrate_ns, "sw1", "sw2", index=0)
            .corruption_window(config.corrupt_start_ns,
                               config.corrupt_stop_ns, "sw2",
                               config.corrupt_probability))


def run_fig8(protocol: str, config: Optional[Fig8Config] = None,
             sim: Optional[Simulator] = None) -> Fig8Result:
    """Run the failure/recovery scenario with ``protocol`` in
    {"dctcp", "mtp"}.

    Without an explicit ``sim`` the run executes under a
    :class:`~repro.analysis.SanitizingSimulator` with a packet ledger, so
    conservation is audited and reported in the result.
    """
    if protocol not in ("dctcp", "mtp"):
        raise ValueError(f"unknown protocol {protocol!r}")
    config = config or Fig8Config()
    if sim is None:
        sim = SanitizingSimulator(ledger=PacketLedger())
    # Both switches reroute (each with its own detection state): the
    # forward path fails over at sw1, the reverse (ACK) path at sw2.
    selectors = (FailoverSelector(config.detection_delay_ns),
                 FailoverSelector(config.detection_delay_ns))
    net, sender, receiver, sw1, sw2 = build_two_path(
        sim, PATH_RATE_BPS, PATH_RATE_BPS, LINK_DELAY_NS, LINK_DELAY_NS,
        EDGE_RATE_BPS, LINK_DELAY_NS,
        queue_factory=lambda: DropTailQueue(BUFFER_PACKETS, ECN_THRESHOLD),
        selector=selectors[0])
    sw2.selector = selectors[1]

    telemetry = TelemetryOffload()
    sw1.add_processor(telemetry)

    controller = ChaosController(sim, net, _schedule(config),
                                 seed=SEED)
    controller.install()

    # The flows start after the monitor; its probe reads them during the
    # run.
    flows: list = []
    monitor = RecoveryMonitor(
        sim, config.sample_interval_ns,
        retx_probe=lambda: flows[0].retransmissions)
    sim.at(config.flap_down_ns, monitor.note_fault, "link_down")
    sim.at(config.migrate_ns, monitor.note_fault, "offload_migrate")

    if protocol == "mtp":
        registry = PathletRegistry(sim)
        for path in net.links[1:3]:
            registry.register(path.port_a, EcnFeedbackSource(ECN_THRESHOLD))
        attach_exclusion_lookup(sw1, registry)
    flows += start_long_flows(protocol, sender, receiver,
                              monitor.record_bytes, 1, 512, None)

    sim.run(until=config.duration_ns)

    recoveries = monitor.report(until_ns=config.duration_ns)
    ledger = getattr(sim, "ledger", None)
    conservation = ledger.finalize(sim) if ledger is not None else None
    return Fig8Result(protocol, monitor.rate.series_bps(config.duration_ns),
                      recoveries, config, conservation,
                      list(controller.applied), telemetry,
                      sum(s.failovers for s in selectors),
                      flows[0].retransmissions)


def compare_fig8(config: Optional[Fig8Config] = None
                 ) -> Dict[str, Fig8Result]:
    """Run both protocols against the identical fault schedule."""
    config = config or Fig8Config()
    return {protocol: run_fig8(protocol, config)
            for protocol in ("dctcp", "mtp")}
