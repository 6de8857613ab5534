"""Network container and topology builders.

:class:`Network` wires hosts, switches, and links together and installs
static equal-cost routes (all next hops on shortest paths, including parallel
links).  The module also provides the canonical topologies of the paper's
experiments: dumbbell, two-path, and proxy chains.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from ..sim.engine import Simulator
from .link import Link
from .node import Host, Node, Switch
from .queues import QueueDiscipline
from .routing import PortSelector

__all__ = ["Network", "build_dumbbell", "build_two_path",
           "build_proxy_chain", "build_leaf_spine"]

QueueFactory = Callable[[], QueueDiscipline]


class Network:
    """A set of nodes and links plus static route computation."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.nodes: Dict[str, Node] = {}
        self.links: List[Link] = []

    def add_host(self, name: str) -> Host:
        """Create and register a host."""
        host = Host(self.sim, name)
        self._register(host)
        return host

    def add_switch(self, name: str,
                   selector: Optional[PortSelector] = None) -> Switch:
        """Create and register a switch."""
        switch = Switch(self.sim, name, selector=selector)
        self._register(switch)
        return switch

    def add_node(self, node: Node) -> Node:
        """Register an externally constructed node (e.g. a proxy)."""
        self._register(node)
        return node

    def _register(self, node: Node) -> None:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node

    def connect(self, a: Node, b: Node, rate_bps: int, delay_ns: int,
                queue_factory: Optional[QueueFactory] = None,
                rate_bps_ba: Optional[int] = None) -> Link:
        """Create a full-duplex link between two registered nodes."""
        for node in (a, b):
            if self.nodes.get(node.name) is not node:
                raise ValueError(f"node {node.name!r} is not in this network")
        link = Link(self.sim, a, b, rate_bps, delay_ns,
                    queue_factory=queue_factory, rate_bps_ba=rate_bps_ba)
        self.links.append(link)
        return link

    def switch(self, name: str) -> Switch:
        """Look up a switch by name."""
        node = self.nodes[name]
        if not isinstance(node, Switch):
            raise TypeError(f"{name!r} is not a Switch")
        return node

    def links_between(self, a_name: str, b_name: str) -> List[Link]:
        """All links joining two named nodes, in creation order.

        Parallel links are returned in the order they were connected, so
        fault schedules can address "the second sw1–sw2 link" stably.
        """
        found = []
        for link in self.links:
            ends = {link.port_a.node.name, link.port_b.node.name}
            if ends == {a_name, b_name}:
                found.append(link)
        return found

    def install_routes(self) -> None:
        """Install equal-cost shortest-path routes on every switch.

        For each destination host, every switch gets the full set of ports
        that lead to a next hop on *some* shortest path — parallel links to
        the same next hop all count, which is what makes the two-path
        experiments work.  Multihomed hosts get explicit per-destination
        routes pinned to their shortest-path port.
        """
        for dst in self.nodes.values():
            distances = self._bfs_distances(dst)
            for node in self.nodes.values():
                if node is dst or node.name not in distances:
                    continue
                reachable = [port for port in node.ports
                             if port.peer is not None
                             and port.peer.name in distances]
                if not reachable:
                    continue
                best = min(distances[port.peer.name] for port in reachable)
                ports = [port for port in reachable
                         if distances[port.peer.name] == best]
                if isinstance(node, Switch):
                    node.add_route(dst.address, ports)
                elif isinstance(node, Host) and len(node.ports) > 1:
                    node.add_route(dst.address, ports[0])

    def _bfs_distances(self, root: Node) -> Dict[str, int]:
        distances = {root.name: 0}
        frontier = deque([root])
        while frontier:
            node = frontier.popleft()
            for port in node.ports:
                peer = port.peer
                if peer is not None and peer.name not in distances:
                    distances[peer.name] = distances[node.name] + 1
                    frontier.append(peer)
        return distances

    def __repr__(self) -> str:
        return f"<Network nodes={len(self.nodes)} links={len(self.links)}>"


def build_dumbbell(sim: Simulator, n_pairs: int, edge_rate_bps: int,
                   bottleneck_rate_bps: int, delay_ns: int,
                   queue_factory: Optional[QueueFactory] = None,
                   ) -> Tuple[Network, List[Host], List[Host]]:
    """Classic dumbbell: n senders and n receivers around one bottleneck.

    Returns ``(network, senders, receivers)``; sender ``i`` pairs with
    receiver ``i``.  Edge links get large default queues; the queue factory
    applies to the bottleneck (both directions).
    """
    if n_pairs <= 0:
        raise ValueError("need at least one host pair")
    net = Network(sim)
    left = net.add_switch("swL")
    right = net.add_switch("swR")
    net.connect(left, right, bottleneck_rate_bps, delay_ns,
                queue_factory=queue_factory)
    senders, receivers = [], []
    for i in range(n_pairs):
        sender = net.add_host(f"h{i}")
        receiver = net.add_host(f"r{i}")
        net.connect(sender, left, edge_rate_bps, delay_ns)
        net.connect(right, receiver, edge_rate_bps, delay_ns)
        senders.append(sender)
        receivers.append(receiver)
    net.install_routes()
    return net, senders, receivers


def build_two_path(sim: Simulator, rate_a_bps: int, rate_b_bps: int,
                   delay_a_ns: int, delay_b_ns: int, edge_rate_bps: int,
                   edge_delay_ns: int,
                   queue_factory: Optional[QueueFactory] = None,
                   selector: Optional[PortSelector] = None,
                   ) -> Tuple[Network, Host, Host, Switch, Switch]:
    """Sender and receiver joined by two parallel paths.

    ``sender --edge--> sw1 ==(path A | path B)==> sw2 --edge--> receiver``.
    Paths A and B are parallel links between sw1 and sw2 with independent
    rates and delays; ``selector`` decides how sw1 splits traffic.  As in
    :func:`build_dumbbell`, edge links get the default queues and the
    queue factory applies to both paths, which are ``network.links[1:3]``.
    Returns ``(network, sender, receiver, sw1, sw2)``.
    """
    net = Network(sim)
    sender = net.add_host("sender")
    receiver = net.add_host("receiver")
    sw1 = net.add_switch("sw1", selector=selector)
    sw2 = net.add_switch("sw2")
    net.connect(sender, sw1, edge_rate_bps, edge_delay_ns)
    net.connect(sw1, sw2, rate_a_bps, delay_a_ns, queue_factory=queue_factory)
    net.connect(sw1, sw2, rate_b_bps, delay_b_ns, queue_factory=queue_factory)
    net.connect(sw2, receiver, edge_rate_bps, edge_delay_ns)
    net.install_routes()
    return net, sender, receiver, sw1, sw2


def build_leaf_spine(sim: Simulator, n_leaves: int, n_spines: int,
                     hosts_per_leaf: int, host_rate_bps: int,
                     fabric_rate_bps: int, link_delay_ns: int,
                     queue_factory: Optional[QueueFactory] = None,
                     selector: Optional[PortSelector] = None,
                     ) -> Tuple[Network, List[Host], List[Switch],
                                List[Switch]]:
    """Two-tier leaf-spine fabric: every leaf connects to every spine.

    Cross-rack traffic has ``n_spines`` equal-cost paths; ``selector`` is
    installed on every switch (ECMP, spraying, message-aware, ...).
    Returns ``(network, hosts, leaves, spines)``; host ``i`` sits under
    leaf ``i // hosts_per_leaf``.
    """
    if n_leaves <= 0 or n_spines <= 0 or hosts_per_leaf <= 0:
        raise ValueError("leaf/spine/host counts must be positive")
    net = Network(sim)
    spines = [net.add_switch(f"spine{index}", selector=selector)
              for index in range(n_spines)]
    leaves = []
    hosts: List[Host] = []
    for leaf_index in range(n_leaves):
        leaf = net.add_switch(f"leaf{leaf_index}", selector=selector)
        leaves.append(leaf)
        for spine in spines:
            net.connect(leaf, spine, fabric_rate_bps, link_delay_ns,
                        queue_factory=queue_factory)
        for host_index in range(hosts_per_leaf):
            host = net.add_host(f"h{leaf_index}_{host_index}")
            net.connect(host, leaf, host_rate_bps, link_delay_ns,
                        queue_factory=queue_factory)
            hosts.append(host)
    net.install_routes()
    return net, hosts, leaves, spines


def build_proxy_chain(sim: Simulator, proxy: Node, client_rate_bps: int,
                      server_rate_bps: int, delay_ns: int,
                      ) -> Tuple[Network, Host, Host]:
    """Client --fast link--> proxy --slow link--> server (Figure 2).

    The caller constructs the proxy node (it terminates transport state) and
    this helper wires the rate-mismatched links around it.
    Returns ``(network, client, server)``.
    """
    net = Network(sim)
    client = net.add_host("client")
    server = net.add_host("server")
    net.add_node(proxy)
    net.connect(client, proxy, client_rate_bps, delay_ns)
    net.connect(proxy, server, server_rate_bps, delay_ns)
    net.install_routes()
    return net, client, server
