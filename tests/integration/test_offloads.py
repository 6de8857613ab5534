"""In-network offloads end-to-end: proxy, cache, L7 LB, mutation,
aggregation, trimming."""

from repro.apps import KvsClient, KvsServer, RpcClient, RpcServer
from repro.core import MtpStack
from repro.net import DropTailQueue, Network
from repro.offloads import (AggregationOffload, GradientChunk,
                            AggregatedChunk, CompressedPayload,
                            InNetworkCache, L7LoadBalancer, MutatingOffload,
                            Replica, TcpProxy, TrimmingQueue, compressor)
from repro.sim import (Simulator, gbps, mbps, microseconds, milliseconds)
from repro.transport import ConnectionCallbacks, TcpStack


def star_mtp(sim, n_hosts, rate=gbps(10), delay=microseconds(2),
             queue_capacity=128, ecn_threshold=20,
             queue_factory=None):
    """n hosts around one switch, all running MTP."""
    net = Network(sim)
    factory = queue_factory or (lambda: DropTailQueue(queue_capacity,
                                                      ecn_threshold))
    sw = net.add_switch("sw")
    hosts, stacks = [], []
    for i in range(n_hosts):
        host = net.add_host(f"h{i}")
        net.connect(host, sw, rate, delay, queue_factory=factory)
        hosts.append(host)
    net.install_routes()
    for host in hosts:
        stacks.append(MtpStack(host))
    return net, sw, hosts, stacks


class TestTcpProxy:
    def build(self, sim, buffer_limit):
        from repro.net import build_proxy_chain
        proxy = TcpProxy(sim, "proxy", buffer_limit=buffer_limit)
        net, client, server = build_proxy_chain(
            sim, proxy, client_rate_bps=gbps(10),
            server_rate_bps=gbps(4), delay_ns=microseconds(5))
        proxy.set_server(server.address)
        client_stack = TcpStack(client)
        server_stack = TcpStack(server)
        received = [0]
        server_stack.listen(
            80, lambda conn: ConnectionCallbacks(
                on_data=lambda c, n: received.__setitem__(0,
                                                          received[0] + n)))
        return net, client, server, proxy, client_stack, received

    def test_relays_all_bytes(self, sim):
        net, client, server, proxy, stack, received = self.build(sim, None)
        total = 500_000
        stack.connect(server.address, proxy.listen_port,
                      ConnectionCallbacks(
                          on_connected=lambda c: c.send(total)),
                      )  # connect to proxy's address below
        sim.run(until=milliseconds(1))
        # The connection above went to the server directly; reset and use
        # the proxy address properly.

    def test_proxy_terminates_and_relays(self, sim):
        net, client, server, proxy, stack, received = self.build(sim, None)
        total = 500_000
        stack.connect(proxy.address, proxy.listen_port,
                      ConnectionCallbacks(
                          on_connected=lambda c: c.send(total)))
        sim.run(until=milliseconds(50))
        assert received[0] == total
        assert len(proxy.sessions) == 1
        assert proxy.sessions[0].bytes_relayed == total

    def test_unlimited_buffer_grows_with_rate_mismatch(self, sim):
        net, client, server, proxy, stack, received = self.build(sim, None)
        conn = stack.connect(proxy.address, proxy.listen_port,
                             ConnectionCallbacks(
                                 on_connected=lambda c: c.send(4_000_000)))
        sim.run(until=milliseconds(2))
        # 10 vs 4 Gbps: roughly (6 Gbps / 8) * 2 ms = 1.5 MB accumulates.
        assert proxy.total_buffered_bytes() > 300_000

    def test_limited_buffer_stays_bounded(self, sim):
        limit = 64 * 1024
        net, client, server, proxy, stack, received = self.build(sim, limit)
        stack.connect(proxy.address, proxy.listen_port,
                      ConnectionCallbacks(
                          on_connected=lambda c: c.send(4_000_000)))
        sim.run(until=milliseconds(4))
        assert proxy.total_buffered_bytes() <= 3 * limit
        assert received[0] > 0  # still making progress


class TestInNetworkCache:
    def build(self, sim):
        net, sw, hosts, stacks = star_mtp(sim, 2, delay=microseconds(10))
        client_host, server_host = hosts
        client_stack, server_stack = stacks
        server = KvsServer(server_stack.endpoint(port=700),
                           service_time_ns=microseconds(50))
        server.put("hot", "value-hot", value_size=2000)
        server.put("cold", "value-cold", value_size=2000)
        client = KvsClient(client_stack.endpoint(), server_host.address, 700)
        cache = InNetworkCache(sim, service_port=700, capacity=8)
        sw.add_processor(cache)
        return client, server, cache

    def test_miss_then_hit(self, sim):
        client, server, cache = self.build(sim)
        client.get("hot")
        sim.run(until=milliseconds(5))
        assert client.hits_by_origin() == {"server": 1}
        assert "hot" in cache  # filled from the response
        client.get("hot")
        sim.run(until=milliseconds(10))
        assert client.hits_by_origin() == {"server": 1, "cache": 1}
        assert cache.hits == 1

    def test_cache_hit_is_faster(self, sim):
        client, server, cache = self.build(sim)
        client.get("hot")
        sim.run(until=milliseconds(5))
        client.get("hot")
        sim.run(until=milliseconds(10))
        first = client.responses[0][1]
        second = client.responses[1][1]
        assert second < first  # skipped server RTT segment + service time

    def test_put_invalidates(self, sim):
        client, server, cache = self.build(sim)
        cache.insert("hot", "stale", 2000)
        client.put("hot", "fresh", value_size=2000)
        sim.run(until=milliseconds(5))
        assert "hot" not in cache
        assert cache.invalidations == 1
        assert server.store["hot"] == "fresh"

    def test_lru_eviction(self, sim):
        client, server, cache = self.build(sim)
        for i in range(20):
            cache.insert(f"k{i}", i)
        assert len(cache) == 8
        assert "k19" in cache
        assert "k0" not in cache

    def test_backend_not_touched_on_hit(self, sim):
        client, server, cache = self.build(sim)
        cache.insert("hot", "cached", 2000)
        client.get("hot")
        sim.run(until=milliseconds(5))
        assert server.gets_served == 0
        assert client.hits_by_origin() == {"cache": 1}


class TestL7LoadBalancer:
    def test_least_loaded_avoids_slow_replica(self, sim):
        net, sw, hosts, stacks = star_mtp(sim, 4)
        lb_host = hosts[1]
        replicas = []
        for index, (host, stack) in enumerate(zip(hosts[2:], stacks[2:])):
            endpoint = stack.endpoint(port=700)
            service = microseconds(2000) if index == 0 else microseconds(10)
            RpcServer(endpoint, handler=lambda method, args: "ok",
                      service_time_ns=service)
            replicas.append(Replica(host.address, 700))
        balancer = L7LoadBalancer(stacks[1].endpoint(port=700), replicas)
        client = RpcClient(stacks[0].endpoint(), lb_host.address, 700)

        def issue(count=[0]):
            if count[0] < 60:
                client.call("work")
                count[0] += 1
                sim.schedule(microseconds(20), issue)

        issue()
        sim.run(until=milliseconds(100))
        slow, fast = balancer.distribution()[0], balancer.distribution()[1]
        assert len(client.completed) == 60
        assert slow < fast  # slow replica got fewer requests


class TestMutation:
    def test_compression_shrinks_bytes_on_wire(self, sim):
        net, sw, hosts, stacks = star_mtp(sim, 2)
        sender_host, receiver_host = hosts
        inbox = []
        stacks[1].endpoint(port=500,
                           on_message=lambda ep, msg: inbox.append(msg))
        offload = MutatingOffload(sim, compressor(0.5), match_port=500)
        sw.add_processor(offload)
        sender = stacks[0].endpoint()
        done = []
        sender.send_message(receiver_host.address, 500, 100_000,
                            payload={"body": "x"},
                            on_complete=done.append)
        sim.run(until=milliseconds(50))
        assert len(done) == 1            # sender completed (offload ACKed)
        assert len(inbox) == 1
        assert inbox[0].size == 50_000   # mutated length
        assert isinstance(inbox[0].payload, CompressedPayload)
        assert offload.messages_mutated == 1

    def test_oversized_message_passes_through(self, sim):
        net, sw, hosts, stacks = star_mtp(sim, 2)
        inbox = []
        stacks[1].endpoint(port=500,
                           on_message=lambda ep, msg: inbox.append(msg))
        offload = MutatingOffload(sim, compressor(0.5), match_port=500,
                                  buffer_budget=10_000)
        sw.add_processor(offload)
        stacks[0].endpoint().send_message(hosts[1].address, 500, 50_000)
        sim.run(until=milliseconds(50))
        assert inbox[0].size == 50_000
        assert offload.messages_passed_through >= 1

    def test_unrelated_port_untouched(self, sim):
        net, sw, hosts, stacks = star_mtp(sim, 2)
        inbox = []
        stacks[1].endpoint(port=501,
                           on_message=lambda ep, msg: inbox.append(msg))
        sw.add_processor(MutatingOffload(sim, compressor(0.5),
                                         match_port=500))
        stacks[0].endpoint().send_message(hosts[1].address, 501, 10_000)
        sim.run(until=milliseconds(20))
        assert inbox[0].size == 10_000


class TestAggregation:
    def test_gradients_summed(self, sim):
        n_workers = 3
        net, sw, hosts, stacks = star_mtp(sim, n_workers + 1)
        ps_host, ps_stack = hosts[0], stacks[0]
        received = []
        ps_stack.endpoint(port=900,
                          on_message=lambda ep, msg: received.append(
                              msg.payload))
        offload = AggregationOffload(sim, service_port=900,
                                     n_workers=n_workers,
                                     ps_address=ps_host.address, ps_port=900)
        sw.add_processor(offload)
        for worker_id, stack in enumerate(stacks[1:]):
            endpoint = stack.endpoint()
            chunk = GradientChunk(round_id=1, chunk_id=0,
                                  worker_id=worker_id,
                                  values=[1.0, 2.0, float(worker_id)])
            endpoint.send_message(ps_host.address, 900, 1000, payload=chunk)
        sim.run(until=milliseconds(20))
        assert len(received) == 1
        aggregated = received[0]
        assert isinstance(aggregated, AggregatedChunk)
        assert aggregated.values == [3.0, 6.0, 3.0]
        assert offload.chunks_absorbed == 3
        assert offload.chunks_emitted == 1

    def test_multiple_chunks_and_rounds(self, sim):
        n_workers = 2
        net, sw, hosts, stacks = star_mtp(sim, n_workers + 1)
        ps_host = hosts[0]
        received = []
        stacks[0].endpoint(port=900,
                           on_message=lambda ep, msg: received.append(
                               msg.payload))
        sw.add_processor(AggregationOffload(
            sim, 900, n_workers, ps_host.address, 900))
        for round_id in (1, 2):
            for chunk_id in (0, 1):
                for worker_id, stack in enumerate(stacks[1:]):
                    stack.endpoint().send_message(
                        ps_host.address, 900, 500,
                        payload=GradientChunk(round_id, chunk_id, worker_id,
                                              [1.0]))
        sim.run(until=milliseconds(50))
        assert len(received) == 4
        assert all(chunk.values == [2.0] for chunk in received)


class TestTrimming:
    def test_trim_triggers_nack_repair(self, sim):
        net = Network(sim)
        a = net.add_host("a")
        b = net.add_host("b")
        net.connect(a, b, mbps(200), microseconds(5),
                    queue_factory=lambda: TrimmingQueue(capacity=8))
        net.install_routes()
        stack_a, stack_b = MtpStack(a), MtpStack(b)
        inbox = []
        stack_b.endpoint(port=100,
                         on_message=lambda ep, msg: inbox.append(msg))
        sender = stack_a.endpoint()
        sender.send_message(b.address, 100, 300_000)
        sim.run(until=milliseconds(100))
        assert len(inbox) == 1
        assert sender.nack_repairs > 0

    def test_trimming_beats_timeouts(self, sim):
        """Trim+NACK completes faster than drop+RTO on the same bottleneck."""

        def run(queue_factory):
            local = Simulator()
            net = Network(local)
            a = net.add_host("a")
            b = net.add_host("b")
            net.connect(a, b, mbps(200), microseconds(5),
                        queue_factory=queue_factory)
            net.install_routes()
            stack_a, stack_b = MtpStack(a), MtpStack(b)
            done = []
            stack_b.endpoint(port=100,
                             on_message=lambda ep, msg: done.append(
                                 msg.completed_at))
            stack_a.endpoint().send_message(b.address, 100, 300_000)
            local.run(until=milliseconds(200))
            assert done, "transfer did not complete"
            return done[0]

        trimmed = run(lambda: TrimmingQueue(capacity=8))
        dropped = run(lambda: DropTailQueue(capacity=8))
        assert trimmed < dropped
