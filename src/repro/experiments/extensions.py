"""Extension experiments: paper claims beyond the evaluation's figures.

* **NDP trimming** (§4 "NDP") — a 20 KB burst through an 8-packet
  bottleneck: with trimming a lost payload becomes a one-RTT NACK repair
  instead of a retransmission-timeout wait.
* **RCP quick start** — waves of fresh senders on one 10 Gbps pathlet
  speaking ECN or explicit-rate feedback.  Completion times are comparable
  (initial windows already cover these BDPs), but the explicit-rate pathlet
  holds a smaller peak queue: the fair rate arrives before a queue builds.
* **Message independence** (§2.2, quantified) — small RPCs behind
  occasional 400 KB elephants, framed over one persistent TCP stream vs as
  independent MTP messages; the stream head-of-line blocks the small RPCs.
* **Header overhead** (§4 "Packet Header Overheads") — MTP header size
  against the number of pathlet-feedback entries it carries.
* **Sweeps** of the Figure-5 flip period and the Figure-6 offered load.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..apps import TcpMessageFraming
from ..core import (FB_ECN, KIND_DATA, EcnFeedbackSource, Feedback,
                    MtpHeader, MtpStack, PathletRegistry)
from ..net import DropTailQueue, Network, PeriodicSampler
from ..offloads import TrimmingQueue
from ..sim import Simulator, gbps, mbps, microseconds, milliseconds
from ..transport import ConnectionCallbacks, TcpStack
from .common import build_incast_star
from .fig5_multipath import Fig5Config, Fig5Result, run_fig5
from .fig6_loadbalance import Fig6Config, Fig6Result, compare_fig6

__all__ = ["compare_trimming", "compare_fresh_senders",
           "compare_message_independence", "header_sizes",
           "sweep_flip_period", "sweep_fig6_load", "TCP_HEADER_BYTES",
           "WAVES", "SENDERS_PER_WAVE"]

#: Bytes of a bare TCP header, the yardstick for MTP's header overhead.
TCP_HEADER_BYTES = 40


def _trimming_transfer(queue_factory) -> Tuple[Optional[int], object]:
    """One 20 KB MTP transfer over 200 Mbps; ``(fct_ns, sender)``."""
    sim = Simulator()
    net = Network(sim)
    a = net.add_host("a")
    b = net.add_host("b")
    net.connect(a, b, mbps(200), microseconds(5),
                queue_factory=queue_factory)
    net.install_routes()
    done: List[int] = []
    MtpStack(b).endpoint(
        port=100, on_message=lambda ep, msg: done.append(msg.completed_at))
    sender = MtpStack(a).endpoint()
    sender.send_message(b.address, 100, 20_000)
    sim.run(until=milliseconds(400))
    return (done[0] if done else None), sender


def compare_trimming() -> Dict[str, Tuple]:
    """NDP-style trimming vs drop-tail behind an 8-packet queue.

    Returns ``{label: (fct_ns, sender)}``; ``fct_ns`` is ``None`` if the
    transfer never completed.
    """
    return {
        "trimming": _trimming_transfer(lambda: TrimmingQueue(capacity=8)),
        "drop_tail": _trimming_transfer(lambda: DropTailQueue(capacity=8)),
    }


#: Fresh-sender workload: 6 waves of 2 senders, 400 us apart, each
#: sending one 150 KB message.
WAVES = 6
SENDERS_PER_WAVE = 2
WAVE_GAP_NS = microseconds(400)


def _fresh_senders(feedback_kind: str) -> Tuple[List[int], int]:
    """Waves of fresh MTP senders into one sink; ``(fcts_ns, peak)``."""
    sim = Simulator()
    sink, senders, bottleneck = build_incast_star(
        sim, WAVES * SENDERS_PER_WAVE, feedback_kind)
    MtpStack(sink).endpoint(port=100)
    completions: List[int] = []
    queue = PeriodicSampler(sim, microseconds(2),
                            lambda: len(bottleneck.queue))
    for index, host in enumerate(senders):
        endpoint = MtpStack(host).endpoint()

        def launch(endpoint=endpoint):
            begun = sim.now
            endpoint.send_message(
                sink.address, 100, 150_000,
                on_complete=lambda state: completions.append(
                    sim.now - begun))

        sim.schedule((index // SENDERS_PER_WAVE) * WAVE_GAP_NS, launch)
    sim.run(until=milliseconds(30))
    return completions, queue.max_value()


def compare_fresh_senders() -> Dict[str, Tuple[List[int], int]]:
    """ECN probing vs RCP explicit rate: ``{kind: (fcts_ns, peak_queue)}``."""
    return {kind: _fresh_senders(kind) for kind in ("ecn", "rate")}


#: Message-independence workload: one 400 KB elephant per 50 2 KB RPCs,
#: one message every 20 us, over a 1 Gbps link for 12 ms.
SMALL_RPC_BYTES = 2_000
ELEPHANT_BYTES = 400_000
ELEPHANT_EVERY = 50
RPC_GAP_NS = microseconds(20)
RPC_DURATION_NS = milliseconds(12)


def _rpc_link(sim: Simulator):
    net = Network(sim)
    a = net.add_host("a")
    b = net.add_host("b")
    net.connect(a, b, gbps(1), microseconds(5),
                queue_factory=lambda: DropTailQueue(256, 20))
    net.install_routes()
    return a, b


def _rpc_arrivals(sim: Simulator, send) -> None:
    """Call ``send(size, (size, sent_at))`` on the shared arrival pattern."""
    counter = [0]

    def tick():
        counter[0] += 1
        size = (ELEPHANT_BYTES if counter[0] % ELEPHANT_EVERY == 0
                else SMALL_RPC_BYTES)
        send(size, (size, sim.now))
        if sim.now < RPC_DURATION_NS - milliseconds(3):
            sim.schedule(RPC_GAP_NS, tick)

    tick()


def _rpcs_over_tcp() -> List[Tuple[int, int]]:
    sim = Simulator()
    a, b = _rpc_link(sim)
    latencies: List[Tuple[int, int]] = []
    framing = TcpMessageFraming(
        on_message=lambda fr, size, tag: latencies.append(
            (tag[0], sim.now - tag[1])))
    TcpStack(b).listen(80, lambda conn: ConnectionCallbacks(
        on_data=framing.on_data), variant="dctcp")
    conn = TcpStack(a).connect(
        b.address, 80,
        ConnectionCallbacks(on_connected=lambda c: _rpc_arrivals(
            sim, framing.send_message)),
        variant="dctcp")
    framing.bind_sender(conn)
    sim.run(until=RPC_DURATION_NS)
    return latencies


def _rpcs_over_mtp() -> List[Tuple[int, int]]:
    sim = Simulator()
    a, b = _rpc_link(sim)
    PathletRegistry(sim).register(a.port_to(b), EcnFeedbackSource(20))
    latencies: List[Tuple[int, int]] = []
    MtpStack(b).endpoint(
        port=100, on_message=lambda ep, msg: latencies.append(
            (msg.payload[0], sim.now - msg.payload[1])))
    endpoint = MtpStack(a).endpoint()
    _rpc_arrivals(sim, lambda size, tag: endpoint.send_message(
        b.address, 100, size, payload=tag))
    sim.run(until=RPC_DURATION_NS)
    return latencies


def compare_message_independence() -> Dict[str, List[int]]:
    """Small-RPC latencies (ns) per transport: one TCP stream vs MTP."""
    return {
        name: [latency for size, latency in run()
               if size == SMALL_RPC_BYTES]
        for name, run in (("tcp-stream", _rpcs_over_tcp),
                          ("mtp-messages", _rpcs_over_mtp))}


def header_sizes() -> Dict[int, int]:
    """MTP data-header wire size (bytes) per pathlet-feedback count."""
    sizes = {}
    for count in (0, 1, 2, 4, 8):
        header = MtpHeader(KIND_DATA, 1, 2, 3, msg_len_bytes=1460,
                           msg_len_pkts=1, pkt_len=1460)
        header.path_feedback.extend(
            (path_id + 1, 0, Feedback(FB_ECN, 0.0))
            for path_id in range(count))
        sizes[count] = header.wire_size()
    return sizes


def sweep_flip_period(duration_ns: int
                      ) -> Dict[int, Dict[str, Fig5Result]]:
    """Figure 5 at 96/384/1536 us flips: ``{period_us: {proto: r}}``."""
    return {period: {protocol: run_fig5(protocol, Fig5Config(
        flip_period_ns=microseconds(period), duration_ns=duration_ns))
        for protocol in ("dctcp", "mtp")}
        for period in (96, 384, 1536)}


def sweep_fig6_load(duration_ns: int
                    ) -> Dict[float, Dict[str, Fig6Result]]:
    """Figure 6 (seed 3) at loads 0.3/0.55/0.75: ``{load: {system: r}}``."""
    return {load: compare_fig6(Fig6Config(offered_load=load,
                                          duration_ns=duration_ns, seed=3))
            for load in (0.3, 0.55, 0.75)}
