#!/usr/bin/env python3
"""The paper's Figure 1, end to end: a web cluster with in-network
computing at every layer.

Topology::

    client -- tor1 ==(2 parallel paths)== tor2 -- lb -- {replica1..3}
               |(1) cache                  |(2b) multipath LB
                                           (2a) L7 load balancer
    (3a) ECN feedback on the paths, (3b) replica load feedback at the LB

A client issues KVS GETs.  Hot keys are answered by the switch cache
without crossing the fabric; misses travel over the message-aware
multipath fabric to an L7 balancer that picks the least-loaded replica.

Run:  python examples/figure1_pipeline.py
"""

from repro.apps import KvsClient, KvsServer
from repro.core import EcnFeedbackSource, MtpStack, PathletRegistry
from repro.net import DropTailQueue, Network
from repro.offloads import (InNetworkCache, L7LoadBalancer,
                            MessageAwareSelector, Replica)
from repro.sim import (SeedSequence, Simulator, gbps, microseconds,
                       milliseconds)
from repro.stats import summarize

N_REQUESTS = 300
HOT_KEYS = 4
COLD_KEYS = 40


def build(sim):
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
    replica_hosts = []
    for index in range(3):
        replica = net.add_host(f"replica{index}")
        net.connect(tor2, replica, gbps(10), microseconds(2),
                    queue_factory=queue)
        replica_hosts.append(replica)
    net.install_routes()

    # (3a) pathlet feedback on the parallel fabric paths
    registry = PathletRegistry(sim)
    registry.register(path_a.port_a, EcnFeedbackSource(20))
    registry.register(path_b.port_a, EcnFeedbackSource(20))

    # backends, one slow (2b: the LB must notice)
    replicas = []
    servers = []
    for index, host in enumerate(replica_hosts):
        endpoint = MtpStack(host).endpoint(port=700)
        service = microseconds(400 if index == 0 else 40)
        server = KvsServer(endpoint, service_time_ns=service)
        servers.append(server)
        replicas.append(Replica(host.address, 700))

    # (2a) L7 balancer on its own host
    balancer = L7LoadBalancer(MtpStack(lb_host).endpoint(port=700),
                              replicas)

    # (1) cache on the client's top-of-rack switch
    cache = InNetworkCache(sim, service_port=700, capacity=HOT_KEYS)
    tor1.add_processor(cache)

    client = KvsClient(MtpStack(client_host).endpoint(),
                       lb_host.address, 700)
    return client, servers, balancer, cache


def main() -> None:
    sim = Simulator()
    rng = SeedSequence(11).stream("fig1")
    client, servers, balancer, cache = build(sim)
    for server in servers:
        for key_index in range(COLD_KEYS):
            server.put(f"key{key_index}", f"value{key_index}",
                       value_size=1500)

    count = [0]

    def issue():
        if count[0] >= N_REQUESTS:
            return
        count[0] += 1
        # 70% of requests hit a few hot keys (Zipf-ish skew).
        if rng.random() < 0.7:
            key = f"key{rng.randrange(HOT_KEYS)}"
        else:
            key = f"key{rng.randrange(COLD_KEYS)}"
        client.get(key)
        sim.schedule(microseconds(25), issue)

    issue()
    sim.run(until=milliseconds(200))

    latencies_us = [latency / 1000 for _, latency, _ in client.responses]
    stats = summarize(latencies_us)
    origins = client.hits_by_origin()
    print(f"requests answered: {stats['count']:.0f}/{N_REQUESTS}")
    print(f"latency: mean={stats['mean']:.0f}us p50={stats['p50']:.0f}us "
          f"p99={stats['p99']:.0f}us")
    print(f"answered by switch cache: {origins.get('cache', 0)} "
          f"(hit rate {cache.hit_rate:.0%})")
    print(f"replica request distribution: {balancer.distribution()} "
          f"(replica0 is 10x slower; the LB steers around it)")
    backend_gets = sum(server.gets_served for server in servers)
    print(f"backend GETs served: {backend_gets} "
          f"(cache absorbed {origins.get('cache', 0)})")


if __name__ == "__main__":
    main()
