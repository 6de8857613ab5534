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
from ..core import BlobSender, EcnFeedbackSource, MtpStack, PathletRegistry
from ..net import DropTailQueue, FailoverSelector, Network, Packet
from ..sim import Simulator, gbps, microseconds, milliseconds
from ..transport import ConnectionCallbacks, TcpStack
from .common import attach_exclusion_lookup, series_stats

__all__ = ["Fig8Config", "Fig8Result", "TelemetryOffload", "run_fig8",
           "compare_fig8"]

#: Host-link and core-path rates, the delay of every link, and each core
#: path's queue in packets with its ECN marking threshold.
EDGE_RATE_BPS = gbps(100)
PATH_RATE_BPS = gbps(40)
LINK_DELAY_NS = microseconds(1)
BUFFER_PACKETS = 128
ECN_THRESHOLD = 20
#: Minimum TCP retransmission timeout.
TCP_MIN_RTO_NS = milliseconds(1)
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


def _build(sim: Simulator, config: Fig8Config):
    net = Network(sim)
    sender = net.add_host("sender")
    receiver = net.add_host("receiver")
    # Both switches reroute (each with its own detection state): the
    # forward path fails over at sw1, the reverse (ACK) path at sw2.
    selector = FailoverSelector(config.detection_delay_ns)
    reverse_selector = FailoverSelector(config.detection_delay_ns)
    sw1 = net.add_switch("sw1", selector=selector)
    sw2 = net.add_switch("sw2", selector=reverse_selector)
    queue = lambda: DropTailQueue(BUFFER_PACKETS, ECN_THRESHOLD)
    net.connect(sender, sw1, EDGE_RATE_BPS, LINK_DELAY_NS)
    primary = net.connect(sw1, sw2, PATH_RATE_BPS, LINK_DELAY_NS,
                          queue_factory=queue)
    backup = net.connect(sw1, sw2, PATH_RATE_BPS, LINK_DELAY_NS,
                         queue_factory=queue)
    net.connect(sw2, receiver, EDGE_RATE_BPS, LINK_DELAY_NS)
    net.install_routes()
    return (net, sender, receiver, sw1, sw2, primary, backup,
            (selector, reverse_selector))


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
    (net, sender, receiver, sw1, sw2, primary, backup,
     selectors) = _build(sim, config)

    telemetry = TelemetryOffload()
    sw1.add_processor(telemetry)

    controller = ChaosController(sim, net, _schedule(config),
                                 seed=SEED)
    controller.install()

    # The retransmission probe is bound after the stacks exist.
    retx = {"probe": lambda: 0}
    monitor = RecoveryMonitor(sim, config.sample_interval_ns,
                              retx_probe=lambda: retx["probe"]())
    sim.at(config.flap_down_ns, monitor.note_fault, "link_down")
    sim.at(config.migrate_ns, monitor.note_fault, "offload_migrate")

    if protocol == "mtp":
        registry = PathletRegistry(sim)
        registry.register(primary.port_a,
                          EcnFeedbackSource(ECN_THRESHOLD))
        registry.register(backup.port_a,
                          EcnFeedbackSource(ECN_THRESHOLD))
        attach_exclusion_lookup(sw1, registry)
        stack_sender = MtpStack(sender)
        stack_receiver = MtpStack(receiver)
        stack_receiver.endpoint(
            port=100,
            on_message=lambda endpoint, message:
                monitor.record_bytes(message.size))
        sender_endpoint = stack_sender.endpoint()
        BlobSender(sender_endpoint, receiver.address, 100,
                   total_bytes=1 << 40, window_messages=512)
        retx["probe"] = lambda: sender_endpoint.retransmissions
    else:
        stack_sender = TcpStack(sender)
        stack_receiver = TcpStack(receiver)
        stack_receiver.listen(
            80, lambda conn: ConnectionCallbacks(
                on_data=lambda c, nbytes: monitor.record_bytes(nbytes)),
            variant="dctcp", min_rto_ns=TCP_MIN_RTO_NS)
        connection = stack_sender.connect(
            receiver.address, 80,
            ConnectionCallbacks(on_connected=lambda c: c.send(1 << 40)),
            variant="dctcp", min_rto_ns=TCP_MIN_RTO_NS)
        retx["probe"] = lambda: connection.retransmissions

    sim.run(until=config.duration_ns)

    recoveries = monitor.report(until_ns=config.duration_ns)
    ledger = getattr(sim, "ledger", None)
    conservation = ledger.finalize(sim) if ledger is not None else None
    return Fig8Result(protocol, monitor.rate.series_bps(config.duration_ns),
                      recoveries, config, conservation,
                      list(controller.applied), telemetry,
                      sum(s.failovers for s in selectors), retx["probe"]())


def compare_fig8(config: Optional[Fig8Config] = None
                 ) -> Dict[str, Fig8Result]:
    """Run both protocols against the identical fault schedule."""
    config = config or Fig8Config()
    return {protocol: run_fig8(protocol, config)
            for protocol in ("dctcp", "mtp")}
