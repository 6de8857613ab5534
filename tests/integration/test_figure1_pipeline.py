"""The Figure-1 composition: cache + L7 LB + multipath + feedback together."""

import pytest

from repro.apps import KvsClient, KvsServer
from repro.core import EcnFeedbackSource, MtpStack, PathletRegistry
from repro.net import DropTailQueue, Network
from repro.offloads import (InNetworkCache, L7LoadBalancer,
                            MessageAwareSelector, Replica)
from repro.sim import gbps, microseconds, milliseconds


@pytest.fixture
def pipeline(sim):
    net = Network(sim)
    client_host = net.add_host("client")
    lb_host = net.add_host("lb")
    tor1 = net.add_switch("tor1", selector=MessageAwareSelector())
    tor2 = net.add_switch("tor2")
    queue = lambda: DropTailQueue(128, 20)
    net.connect(client_host, tor1, gbps(10), microseconds(2),
                queue_factory=queue)
    path_a = net.connect(tor1, tor2, gbps(10), microseconds(5),
                         queue_factory=queue)
    path_b = net.connect(tor1, tor2, gbps(10), microseconds(6),
                         queue_factory=queue)
    net.connect(tor2, lb_host, gbps(10), microseconds(2),
                queue_factory=queue)
    replicas, servers = [], []
    for index in range(2):
        host = net.add_host(f"replica{index}")
        net.connect(tor2, host, gbps(10), microseconds(2),
                    queue_factory=queue)
        endpoint = MtpStack(host).endpoint(port=700)
        servers.append(KvsServer(endpoint,
                                 service_time_ns=microseconds(30)))
        replicas.append(Replica(host.address, 700))
    net.install_routes()
    registry = PathletRegistry(sim)
    registry.register(path_a.port_a, EcnFeedbackSource(20))
    registry.register(path_b.port_a, EcnFeedbackSource(20))
    balancer = L7LoadBalancer(MtpStack(lb_host).endpoint(port=700),
                              replicas)
    cache = InNetworkCache(sim, service_port=700, capacity=4)
    tor1.add_processor(cache)
    client = KvsClient(MtpStack(client_host).endpoint(),
                       lb_host.address, 700)
    for server in servers:
        server.put("hot", "hot-value", value_size=1500)
        server.put("cold", "cold-value", value_size=1500)
    return client, servers, balancer, cache


class TestFigure1Pipeline:
    def test_all_requests_answered(self, sim, pipeline):
        client, servers, balancer, cache = pipeline

        def issue(count=[0]):
            if count[0] >= 30:
                return
            count[0] += 1
            client.get("hot" if count[0] % 3 else "cold")
            sim.schedule(microseconds(30), issue)

        issue()
        sim.run(until=milliseconds(100))
        assert len(client.responses) == 30

    def test_cache_offloads_backend(self, sim, pipeline):
        client, servers, balancer, cache = pipeline

        def issue(count=[0]):
            if count[0] >= 20:
                return
            count[0] += 1
            client.get("hot")
            sim.schedule(microseconds(50), issue)

        issue()
        sim.run(until=milliseconds(100))
        origins = client.hits_by_origin()
        assert origins.get("cache", 0) >= 15  # first misses fill, rest hit
        backend_gets = sum(server.gets_served for server in servers)
        assert backend_gets <= 5

    def test_misses_balanced_across_replicas(self, sim, pipeline):
        client, servers, balancer, cache = pipeline
        for index in range(20):
            client.get(f"key{index}")  # distinct keys: every GET misses
        sim.run(until=milliseconds(100))
        distribution = balancer.distribution()
        assert cache.hits == 0
        assert sum(distribution) == 20
        # All 20 are outstanding at once, so least-loaded alternates.
        assert distribution == [10, 10]

    def test_fabric_paths_learned(self, sim, pipeline):
        client, servers, balancer, cache = pipeline
        for _ in range(10):
            client.get("cold")
        sim.run(until=milliseconds(50))
        # The client's stack learned a path with at least one fabric
        # pathlet on it.
        learned = client.endpoint.stack.cc.path_for(client.server_address)
        assert learned != (0,)
