"""Rack-scale soak: mixed transports and offloads on one leaf-spine fabric.

Not a micro-test — this is the "does everything compose" check: MTP RPCs,
TCP streams, UDP datagrams, a cache, and an aggregation offload all share
a 4-leaf / 3-spine fabric with ECMP, concurrently.
"""

import pytest

from repro.apps import KvsClient, KvsServer
from repro.core import EcnFeedbackSource, MtpStack, PathletRegistry
from repro.net import DropTailQueue, EcmpSelector, build_leaf_spine
from repro.offloads import AggregationOffload, GradientChunk, InNetworkCache
from repro.sim import gbps, microseconds, milliseconds
from repro.transport import ConnectionCallbacks, TcpStack, UdpStack


@pytest.fixture
def fabric(sim):
    return build_leaf_spine(
        sim, n_leaves=4, n_spines=3, hosts_per_leaf=2,
        host_rate_bps=gbps(10), fabric_rate_bps=gbps(10),
        link_delay_ns=microseconds(1),
        queue_factory=lambda: DropTailQueue(128, 20),
        selector=EcmpSelector())


def test_mixed_traffic_soak(sim, fabric):
    net, hosts, leaves, spines = fabric
    registry = PathletRegistry(sim)
    for leaf in leaves:
        for port in leaf.ports:
            if port.peer in spines:
                registry.register(port, EcnFeedbackSource(20))

    # --- MTP KVS with a cache on leaf0 ---------------------------------
    kvs_server = KvsServer(MtpStack(hosts[6]).endpoint(port=700))
    kvs_server.put("hot", "value", value_size=2000)
    cache = InNetworkCache(sim, service_port=700, capacity=8)
    leaves[0].add_processor(cache)
    kvs_client = KvsClient(MtpStack(hosts[0]).endpoint(),
                           hosts[6].address, 700)

    def issue_gets(count=[0]):
        if count[0] >= 40:
            return
        count[0] += 1
        kvs_client.get("hot")
        sim.schedule(microseconds(40), issue_gets)

    issue_gets()

    # --- TCP bulk streams cross-rack ------------------------------------
    tcp_received = [0]
    TcpStack(hosts[7]).listen(80, lambda conn: ConnectionCallbacks(
        on_data=lambda c, n: tcp_received.__setitem__(
            0, tcp_received[0] + n)))
    TcpStack(hosts[1]).connect(hosts[7].address, 80, ConnectionCallbacks(
        on_connected=lambda c: c.send(2_000_000)), variant="dctcp")

    # --- UDP telemetry ----------------------------------------------------
    udp_sock = UdpStack(hosts[5]).socket(port=53)
    udp_sender = UdpStack(hosts[2]).socket()

    def send_telemetry(count=[0]):
        if count[0] >= 50:
            return
        count[0] += 1
        udp_sender.sendto(hosts[5].address, 53, 500)
        sim.schedule(microseconds(30), send_telemetry)

    send_telemetry()

    sim.run(until=milliseconds(60))

    # KVS: all answered, cache served most after the first fill.
    assert len(kvs_client.responses) == 40
    assert kvs_client.hits_by_origin().get("cache", 0) >= 30
    # TCP: the bulk stream finished.
    assert tcp_received[0] == 2_000_000
    # UDP: datagrams flowed (some loss tolerated).
    assert udp_sock.datagrams_received >= 40


def test_aggregation_on_fabric(sim, fabric):
    net, hosts, leaves, spines = fabric
    ps_host = hosts[2]  # under leaf1
    aggregated = []
    MtpStack(ps_host).endpoint(
        port=900, on_message=lambda ep, msg: aggregated.append(msg.payload))
    leaves[1].add_processor(AggregationOffload(
        sim, service_port=900, n_workers=3, ps_address=ps_host.address,
        ps_port=900))
    workers = [hosts[0], hosts[4], hosts[6]]  # other racks
    for worker_id, host in enumerate(workers):
        endpoint = MtpStack(host).endpoint()
        for chunk_id in range(5):
            endpoint.send_message(
                ps_host.address, 900, 800,
                payload=GradientChunk(1, chunk_id, worker_id, [1.0, 2.0]))
    sim.run(until=milliseconds(50))
    assert len(aggregated) == 5
    assert all(chunk.values == [3.0, 6.0] for chunk in aggregated)
