"""Topology builder: nodes, links, routing tables, anycast routing.

The :class:`Network` wraps a :mod:`networkx` graph whose edge weights are
link propagation delays. After all nodes and links are added,
:meth:`Network.build_routes` computes per-destination next-hop tables for
every unicast host address and, for each :class:`AnycastGroup`, routes
every source toward the *nearest* member — which is exactly the property
the paper's anycast-detection heuristic keys on.
"""

from __future__ import annotations

import typing

import networkx as nx

from ..obs.context import obs_of
from .address import AddressRegistry, AnycastGroup, IPAddress
from .geo import Location
from .link import Link
from .node import AccessPoint, Host, Node, Router

#: Core/backbone links: effectively unconstrained compared to app rates.
BACKBONE_BANDWIDTH = 10e9
#: WiFi access links (Quest 2 on campus WiFi in the paper's testbed).
ACCESS_BANDWIDTH = 200e6


class Network:
    """A collection of nodes and links with computed routing tables."""

    def __init__(self, sim, registry: typing.Optional[AddressRegistry] = None) -> None:
        self.sim = sim
        self.registry = registry or AddressRegistry()
        self.graph = nx.DiGraph()
        self.nodes: dict[str, Node] = {}
        self.anycast_groups: dict[int, AnycastGroup] = {}
        self._routes_built = False
        self._obs = obs_of(sim)
        if self._obs.enabled:
            registry = self._obs.registry
            registry.gauge("net.nodes", fn=lambda: len(self.nodes))
            registry.gauge("net.links", fn=lambda: self.graph.number_of_edges())
            registry.gauge(
                "net.inflight_packets", fn=self._inflight_packets
            )
            self._route_builds = registry.counter("net.route_builds")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_router(
        self, name: str, location: Location, provider: str = "transit"
    ) -> Router:
        ip = self.registry.provider(provider).allocate()
        router = Router(self.sim, name, location, ip)
        self._add_node(router)
        return router

    def add_access_point(
        self, name: str, location: Location, provider: str = "enduser"
    ) -> AccessPoint:
        ip = self.registry.provider(provider).allocate()
        ap = AccessPoint(self.sim, name, location, ip)
        self._add_node(ap)
        return ap

    def add_host(
        self,
        name: str,
        location: Location,
        provider: str = "enduser",
        icmp_blocked: bool = False,
        tcp_probe_blocked: bool = False,
    ) -> Host:
        ip = self.registry.provider(provider).allocate()
        host = Host(
            self.sim,
            name,
            location,
            ip,
            icmp_blocked=icmp_blocked,
            tcp_probe_blocked=tcp_probe_blocked,
        )
        self._add_node(host)
        return host

    def _add_node(self, node: Node) -> None:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        self.graph.add_node(node.name)
        self._routes_built = False

    def connect(
        self,
        a: Node,
        b: Node,
        bandwidth_bps: float = BACKBONE_BANDWIDTH,
        delay_s: typing.Optional[float] = None,
        queue_bytes: int = 120_000,
        jitter_s: float = 0.0,
    ) -> tuple:
        """Create links in both directions; delay defaults to geography."""
        if delay_s is None:
            delay_s = a.location.one_way_delay_s(b.location)
        forward = Link(
            self.sim, a, b, bandwidth_bps, delay_s, queue_bytes, jitter_s=jitter_s
        )
        backward = Link(
            self.sim, b, a, bandwidth_bps, delay_s, queue_bytes, jitter_s=jitter_s
        )
        a.add_egress(forward)
        b.add_egress(backward)
        self.graph.add_edge(a.name, b.name, weight=delay_s, link=forward)
        self.graph.add_edge(b.name, a.name, weight=delay_s, link=backward)
        self._routes_built = False
        return forward, backward

    def anycast_group(self, name: str, provider: str) -> AnycastGroup:
        """Allocate an anycast address owned by ``provider``."""
        ip = self.registry.provider(provider).allocate()
        group = AnycastGroup(ip, name)
        self.anycast_groups[ip.value] = group
        return group

    def join_anycast(self, group: AnycastGroup, host: Host) -> None:
        group.add_member(host)
        host.addresses.add(group.ip.value)
        self._routes_built = False

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def build_routes(self) -> None:
        """(Re)compute next-hop tables for all destinations."""
        if self._obs.enabled:
            self._route_builds.inc()
            with self._obs.tracer.span("net.build_routes", nodes=len(self.nodes)):
                self._build_routes()
            return
        self._build_routes()

    def _build_routes(self) -> None:
        paths = dict(nx.all_pairs_dijkstra(self.graph, weight="weight"))
        # Unicast: route every node toward every host address. Access
        # points are probe sources, so their addresses are routable too.
        hosts = [
            n for n in self.nodes.values() if isinstance(n, (Host, AccessPoint))
        ]
        for node in self.nodes.values():
            node.routes.clear()
            distances, routes = paths[node.name]
            for host in hosts:
                if host.name == node.name:
                    continue
                path = routes.get(host.name)
                if path is None or len(path) < 2:
                    continue
                link = node.egress[path[1]]
                node.routes[host.ip.value] = link
        # Anycast: each node routes the group address toward its nearest
        # member (ties broken by node name for determinism).
        for group in self.anycast_groups.values():
            if not group.members:
                continue
            for node in self.nodes.values():
                distances, routes = paths[node.name]
                reachable = [
                    member
                    for member in group.members
                    if member.name == node.name or member.name in distances
                ]
                if not reachable:
                    continue
                nearest = min(
                    reachable,
                    key=lambda m: (distances.get(m.name, 0.0), m.name),
                )
                if nearest.name == node.name:
                    continue
                path = routes[nearest.name]
                node.routes[group.ip.value] = node.egress[path[1]]
        self._routes_built = True

    def ensure_routes(self) -> None:
        if not self._routes_built:
            self.build_routes()

    def _inflight_packets(self) -> int:
        """Packets queued or in transit across every link (sampled by
        the snapshotter as a network-pressure gauge)."""
        total = 0
        for _, _, data in self.graph.edges(data=True):
            link = data.get("link")
            if link is not None:
                total += link.in_flight
        return total

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def host_by_ip(self, ip: IPAddress) -> typing.Optional[Host]:
        for node in self.nodes.values():
            if isinstance(node, Host) and ip.value in node.addresses:
                return node
        return None

    def anycast_member_for(self, source: Node, group: AnycastGroup) -> Host:
        """The member that routing delivers ``source``'s traffic to."""
        self.ensure_routes()
        lengths = nx.single_source_dijkstra_path_length(
            self.graph, source.name, weight="weight"
        )
        return min(
            group.members,
            key=lambda m: (lengths.get(m.name, float("inf")), m.name),
        )

    def whois(self, ip: IPAddress) -> typing.Optional[str]:
        return self.registry.whois(ip)
