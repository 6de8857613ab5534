"""Leaf-spine fabric: multipath routing and transports at rack scale."""

import pytest

from repro.core import (EcnFeedbackSource, MtpStack, PathletRegistry)
from repro.net import (DropTailQueue, EcmpSelector, PacketSpraySelector,
                       build_leaf_spine)
from repro.offloads import MessageAwareSelector
from repro.sim import gbps, microseconds, milliseconds
from repro.transport import ConnectionCallbacks, TcpStack


def fabric(sim, selector=None, n_spines=2):
    return build_leaf_spine(
        sim, n_leaves=3, n_spines=n_spines, hosts_per_leaf=2,
        host_rate_bps=gbps(10), fabric_rate_bps=gbps(10),
        link_delay_ns=microseconds(1),
        queue_factory=lambda: DropTailQueue(128, 20),
        selector=selector)


class TestTopology:
    def test_counts(self, sim):
        net, hosts, leaves, spines = fabric(sim)
        assert len(hosts) == 6
        assert len(leaves) == 3
        assert len(spines) == 2

    def test_cross_rack_has_spine_fanout(self, sim):
        net, hosts, leaves, spines = fabric(sim, n_spines=3)
        # From leaf0, a host under leaf1 is reachable via all 3 spines.
        candidates = leaves[0].candidate_ports(hosts[2].address)
        assert len(candidates) == 3
        assert all(port.peer in spines for port in candidates)

    def test_same_rack_stays_local(self, sim):
        net, hosts, leaves, spines = fabric(sim)
        candidates = leaves[0].candidate_ports(hosts[1].address)
        assert len(candidates) == 1
        assert candidates[0].peer is hosts[1]

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            build_leaf_spine(sim, 0, 1, 1, gbps(1), gbps(1), 0)


class TestTransportsAcrossFabric:
    def test_tcp_cross_rack(self, sim):
        net, hosts, leaves, spines = fabric(sim, selector=EcmpSelector())
        src, dst = hosts[0], hosts[5]
        received = [0]
        TcpStack(dst).listen(80, lambda conn: ConnectionCallbacks(
            on_data=lambda c, n: received.__setitem__(0, received[0] + n)))
        TcpStack(src).connect(dst.address, 80, ConnectionCallbacks(
            on_connected=lambda c: c.send(200_000)))
        sim.run(until=milliseconds(100))
        assert received[0] == 200_000

    def test_mtp_all_to_all(self, sim):
        net, hosts, leaves, spines = fabric(sim, selector=EcmpSelector())
        stacks = [MtpStack(host) for host in hosts]
        inboxes = []
        for stack in stacks:
            inbox = []
            stack.endpoint(port=100,
                           on_message=lambda ep, msg, inbox=inbox:
                           inbox.append(msg))
            inboxes.append(inbox)
        senders = [stack.endpoint() for stack in stacks]
        for i, sender in enumerate(senders):
            for j, host in enumerate(hosts):
                if i != j:
                    sender.send_message(host.address, 100, 10_000)
        sim.run(until=milliseconds(100))
        assert all(len(inbox) == len(hosts) - 1 for inbox in inboxes)

    def test_message_aware_selector_on_fabric(self, sim):
        net, hosts, leaves, spines = fabric(
            sim, selector=MessageAwareSelector())
        src, dst = hosts[0], hosts[4]
        inbox = []
        MtpStack(dst).endpoint(port=100,
                               on_message=lambda ep, msg: inbox.append(msg))
        sender = MtpStack(src).endpoint()
        for _ in range(20):
            sender.send_message(dst.address, 100, 50_000)
        sim.run(until=milliseconds(100))
        assert len(inbox) == 20

    def test_spraying_still_delivers_mtp(self, sim):
        net, hosts, leaves, spines = fabric(
            sim, selector=PacketSpraySelector())
        src, dst = hosts[0], hosts[4]
        inbox = []
        MtpStack(dst).endpoint(port=100,
                               on_message=lambda ep, msg: inbox.append(msg))
        MtpStack(src).endpoint().send_message(dst.address, 100, 100_000)
        sim.run(until=milliseconds(100))
        assert len(inbox) == 1  # MTP reassembles across sprayed paths

    def test_pathlets_per_spine_uplink(self, sim):
        net, hosts, leaves, spines = fabric(sim, selector=EcmpSelector())
        registry = PathletRegistry(sim)
        uplinks = [port for port in leaves[0].ports
                   if port.peer in spines]
        ids = [registry.register(port, EcnFeedbackSource(20))
               for port in uplinks]
        src, dst = hosts[0], hosts[4]
        MtpStack(dst).endpoint(port=100)
        sender_stack = MtpStack(src)
        sender = sender_stack.endpoint()
        for _ in range(30):
            sender.send_message(dst.address, 100, 20_000)
        sim.run(until=milliseconds(100))
        # The sender learned a path through one of the spine pathlets.
        learned = sender_stack.cc.path_for(dst.address)
        assert any(path_id in ids for path_id in learned)
