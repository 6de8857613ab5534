#!/usr/bin/env python3
"""Section 2.4 live: RDMA RC vs MTP on a sprayed two-path fabric.

Both transports move the same messages over two equal paths with a 3 us
delay skew under per-packet spraying.  RDMA RC mandates in-order PSNs, so
every reordering looks like a loss (discard, NAK, go-back-N); MTP's
messages acknowledge per packet and simply reassemble.

Run:  python examples/rdma_vs_mtp.py
"""

from repro.core import EcnFeedbackSource, MtpStack, PathletRegistry
from repro.net import (DropTailQueue, PacketSpraySelector, build_two_path)
from repro.sim import Simulator, gbps, microseconds, milliseconds
from repro.transport import RdmaStack

N_MESSAGES = 20
MESSAGE_BYTES = 100_000


def build(sim):
    return build_two_path(
        sim, rate_a_bps=gbps(10), rate_b_bps=gbps(10),
        delay_a_ns=microseconds(5), delay_b_ns=microseconds(8),
        edge_rate_bps=gbps(40), edge_delay_ns=microseconds(1),
        queue_factory=lambda: DropTailQueue(256),
        selector=PacketSpraySelector())


def run_rdma():
    sim = Simulator()
    net, sender, receiver, sw1, sw2 = build(sim)
    done = []
    qp_r = RdmaStack(receiver).create_qp(
        "rc", on_message=lambda qp, src, size: done.append(sim.now))
    qp_s = RdmaStack(sender).create_qp("rc", rate_bps=gbps(10))
    qp_s.connect(receiver.address, qp_r.qp_number)
    qp_r.connect(sender.address, qp_s.qp_number)
    for _ in range(N_MESSAGES):
        qp_s.send_message(MESSAGE_BYTES)
    sim.run(until=milliseconds(100))
    return done, qp_r.packets_discarded, qp_s.retransmissions


def run_mtp():
    sim = Simulator()
    net, sender, receiver, sw1, sw2 = build(sim)
    registry = PathletRegistry(sim)
    for port in sw1.candidate_ports(receiver.address):
        registry.register(port, EcnFeedbackSource(20))
    done = []
    MtpStack(receiver).endpoint(
        port=100, on_message=lambda ep, msg: done.append(sim.now))
    endpoint = MtpStack(sender).endpoint()
    for _ in range(N_MESSAGES):
        endpoint.send_message(receiver.address, 100, MESSAGE_BYTES)
    sim.run(until=milliseconds(100))
    return done, 0, endpoint.retransmissions


def main() -> None:
    for name, runner in (("RDMA RC", run_rdma), ("MTP    ", run_mtp)):
        done, discarded, retx = runner()
        finish_ms = done[-1] / 1e6 if len(done) == N_MESSAGES else None
        status = (f"all {N_MESSAGES} messages in {finish_ms:.2f} ms"
                  if finish_ms is not None
                  else f"only {len(done)}/{N_MESSAGES} finished")
        print(f"{name}: {status}; reorder-discards={discarded}, "
              f"retransmissions={retx}")
    print("\nsame fabric, same spraying: RC's in-order PSN rule turns "
          "every reorder into recovery work;\nMTP's per-packet SACKs "
          "reassemble and move on (Section 2.4).")


if __name__ == "__main__":
    main()
