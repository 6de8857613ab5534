#!/usr/bin/env python3
"""Quickstart: send MTP messages across a simulated two-host network.

Builds the smallest interesting topology (two hosts, one ECN-marking
bottleneck registered as a pathlet), sends a handful of independent
messages, and prints what arrived and what the pathlet congestion control
learned along the way.

Run:  python examples/quickstart.py
"""

from repro.core import EcnFeedbackSource, MtpStack, PathletRegistry
from repro.net import DropTailQueue, Network
from repro.sim import Simulator, format_rate, format_time, gbps, \
    microseconds, milliseconds


def main() -> None:
    sim = Simulator()

    # --- topology: alice --(10 Gbps, 5us, ECN queue)-- bob ---------------
    net = Network(sim)
    alice = net.add_host("alice")
    bob = net.add_host("bob")
    net.connect(alice, bob, gbps(10), microseconds(5),
                queue_factory=lambda: DropTailQueue(128, ecn_threshold=20))
    net.install_routes()

    # --- make the bottleneck a pathlet that emits ECN feedback -----------
    registry = PathletRegistry(sim)
    pathlet_id = registry.register(alice.port_to(bob), EcnFeedbackSource(20))

    # --- MTP stacks and endpoints ----------------------------------------
    alice_stack = MtpStack(alice)
    bob_stack = MtpStack(bob)

    def on_message(endpoint, message):
        print(f"[{format_time(sim.now)}] bob got message "
              f"#{message.msg_id}: {message.size} bytes, "
              f"payload={message.payload!r}, "
              f"latency={format_time(message.latency_ns)}")

    bob_stack.endpoint(port=100, on_message=on_message)
    sender = alice_stack.endpoint()

    # --- send independent messages: no connection setup needed -----------
    sender.send_message(bob.address, 100, 512,
                        payload={"op": "GET", "key": "user:42"})
    sender.send_message(bob.address, 100, 200_000)  # a multi-packet message
    sender.send_message(bob.address, 100, 1_000, priority=-1,
                        payload="urgent: sent last, arrives first")

    sim.run(until=milliseconds(10))

    # --- what the end-host learned ---------------------------------------
    window = alice_stack.cc.window(pathlet_id, "default")
    srtt = sender.rtt.srtt
    print(f"\nafter {format_time(sim.now)}:")
    print(f"  messages completed: {sender.messages_completed}")
    print(f"  data packets sent:  {sender.data_packets_sent} "
          f"({sender.retransmissions} retransmitted)")
    print(f"  smoothed RTT:       {format_time(srtt or 0)}")
    print(f"  pathlet {pathlet_id} window:  {window} bytes "
          f"(~{format_rate(window * 8e9 / (srtt or 1))} if kept full)")


if __name__ == "__main__":
    main()
