"""Application layer over MTP: RPC, KVS."""

from repro.apps import KvsClient, KvsServer, RpcClient, RpcServer
from repro.core import MtpStack
from repro.net import DropTailQueue, Network
from repro.sim import gbps, microseconds, milliseconds


def star(sim, n_hosts, rate=gbps(10)):
    net = Network(sim)
    sw = net.add_switch("sw")
    hosts = []
    for index in range(n_hosts):
        host = net.add_host(f"h{index}")
        net.connect(host, sw, rate, microseconds(2),
                    queue_factory=lambda: DropTailQueue(128, 20))
        hosts.append(host)
    net.install_routes()
    return net, sw, hosts, [MtpStack(host) for host in hosts]


class TestRpc:
    def test_roundtrip(self, sim):
        net, sw, hosts, stacks = star(sim, 2)
        server = RpcServer(stacks[1].endpoint(port=500),
                           handler=lambda method, args: f"{method}:{args}")
        client = RpcClient(stacks[0].endpoint(), hosts[1].address, 500)
        results = []
        client.call("echo", args=42,
                    on_response=lambda rpc_id, result: results.append(result))
        sim.run(until=milliseconds(10))
        assert results == ["echo:42"]
        assert server.requests_served == 1
        assert client.outstanding == 0

    def test_latency_includes_service_time(self, sim):
        net, sw, hosts, stacks = star(sim, 2)
        service = microseconds(300)
        RpcServer(stacks[1].endpoint(port=500), service_time_ns=service)
        client = RpcClient(stacks[0].endpoint(), hosts[1].address, 500)
        client.call("work")
        sim.run(until=milliseconds(10))
        assert client.latencies_ns()[0] >= service

    def test_large_request_and_response(self, sim):
        net, sw, hosts, stacks = star(sim, 2)
        RpcServer(stacks[1].endpoint(port=500),
                  handler=lambda method, args: "big")
        client = RpcClient(stacks[0].endpoint(), hosts[1].address, 500)
        client.call("fetch", request_size=100_000, response_size=500_000)
        sim.run(until=milliseconds(50))
        assert len(client.completed) == 1

    def test_concurrent_rpcs_all_complete(self, sim):
        net, sw, hosts, stacks = star(sim, 2)
        RpcServer(stacks[1].endpoint(port=500),
                  service_time_ns=microseconds(50))
        client = RpcClient(stacks[0].endpoint(), hosts[1].address, 500)
        for _ in range(40):
            client.call("work")
        sim.run(until=milliseconds(50))
        assert len(client.completed) == 40

    def test_rpcs_are_independent_messages(self, sim):
        """A huge RPC does not delay a later small one (msg independence)."""
        net, sw, hosts, stacks = star(sim, 2)
        RpcServer(stacks[1].endpoint(port=500))
        client = RpcClient(stacks[0].endpoint(), hosts[1].address, 500)
        order = []
        client.call("big", request_size=2_000_000,
                    on_response=lambda rpc_id, r: order.append("big"))
        client.call("small", request_size=200,
                    on_response=lambda rpc_id, r: order.append("small"))
        sim.run(until=milliseconds(100))
        assert order[0] == "small"


class TestKvs:
    def test_get_put_cycle(self, sim):
        net, sw, hosts, stacks = star(sim, 2)
        server = KvsServer(stacks[1].endpoint(port=700))
        client = KvsClient(stacks[0].endpoint(), hosts[1].address, 700)
        seen = []
        client.put("color", "blue",
                   on_response=lambda rid, resp: client.get(
                       "color",
                       on_response=lambda rid2, resp2: seen.append(
                           resp2.value)))
        sim.run(until=milliseconds(10))
        assert seen == ["blue"]
        assert server.puts_served == 1
        assert server.gets_served == 1

    def test_get_missing_key(self, sim):
        net, sw, hosts, stacks = star(sim, 2)
        KvsServer(stacks[1].endpoint(port=700))
        client = KvsClient(stacks[0].endpoint(), hosts[1].address, 700)
        responses = []
        client.get("ghost",
                   on_response=lambda rid, resp: responses.append(resp))
        sim.run(until=milliseconds(10))
        assert responses[0].hit is False
        assert responses[0].value is None

    def test_value_size_controls_response_size(self, sim):
        net, sw, hosts, stacks = star(sim, 2)
        server = KvsServer(stacks[1].endpoint(port=700))
        server.put("big", "x", value_size=300_000)
        client = KvsClient(stacks[0].endpoint(), hosts[1].address, 700)
        client.get("big")
        sim.run(until=milliseconds(50))
        # Large value -> longer completion than a small one would take.
        assert client.responses[0][1] > microseconds(20)

