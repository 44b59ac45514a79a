"""Topology builder: nodes, links, routing tables, anycast routing.

A :class:`Network` is its nodes and their egress links, weighted by
propagation delay. After all nodes and links are added,
:meth:`Network.build_routes` runs a Dijkstra from every node and fills
per-destination next-hop tables for every unicast host address and, for
each :class:`AnycastGroup`, routes every source toward the *nearest*
member — which is exactly the property the paper's anycast-detection
heuristic keys on.
"""

from __future__ import annotations

import heapq
import itertools
import typing

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
        self.nodes: dict[str, Node] = {}
        self.anycast_groups: dict[int, AnycastGroup] = {}
        self._routes_built = False
        self._obs = obs_of(sim)
        if self._obs.enabled:
            registry = self._obs.registry
            registry.gauge("net.nodes", fn=lambda: len(self.nodes))
            registry.gauge("net.links", fn=lambda: sum(1 for _ in self.links()))
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
        # Unicast: route every node toward every host address. Access
        # points are probe sources, so their addresses are routable too.
        hosts = [
            n for n in self.nodes.values() if isinstance(n, (Host, AccessPoint))
        ]
        for node in self.nodes.values():
            distances, first_hops = shortest_paths(node)
            routes = node.routes
            routes.clear()
            for host in hosts:
                link = first_hops.get(host.name)  # None: unreachable or self
                if link is not None:
                    routes[host.ip.value] = link
            # Anycast: route the group address toward the nearest member
            # (ties broken by node name for determinism).
            for group in self.anycast_groups.values():
                reachable = [m for m in group.members if m.name in distances]
                if not reachable:
                    continue
                nearest = min(reachable, key=lambda m: (distances[m.name], m.name))
                if nearest.name != node.name:
                    routes[group.ip.value] = first_hops[nearest.name]
        self._routes_built = True

    def ensure_routes(self) -> None:
        if not self._routes_built:
            self.build_routes()

    def links(self) -> typing.Iterator[Link]:
        """Every directed link, by source node in the order nodes were added."""
        for node in self.nodes.values():
            yield from node.egress.values()

    def _inflight_packets(self) -> int:
        """Packets queued or in transit across every link (sampled by
        the snapshotter as a network-pressure gauge)."""
        return sum(link.in_flight for link in self.links())

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
        lengths, _ = shortest_paths(source)
        return min(
            group.members,
            key=lambda m: (lengths.get(m.name, float("inf")), m.name),
        )

    def whois(self, ip: IPAddress) -> typing.Optional[str]:
        return self.registry.whois(ip)


def shortest_paths(
    source: Node,
) -> typing.Tuple[typing.Dict[str, float], typing.Dict[str, Link]]:
    """Dijkstra over egress links, weighted by propagation delay.

    Returns the delay from ``source`` to every node it reaches, and the
    first link of the path to every node but ``source``.  Ties go the
    way networkx's ``dijkstra`` breaks them: a tentative path gives way
    only to a strictly shorter one, and equal-delay nodes settle in the
    order they were first pushed.
    """
    distances: typing.Dict[str, float] = {}
    first_hops: typing.Dict[str, Link] = {}
    tentative = {source.name: 0}
    pushes = itertools.count(1)
    heap = [(0, 0, source.name, source)]
    while heap:
        distance, _, name, node = heapq.heappop(heap)
        if name in distances:
            continue
        distances[name] = distance
        hop = first_hops.get(name)
        for neighbour, link in node.egress.items():
            if neighbour in distances:
                continue
            candidate = distance + link.delay_s
            best = tentative.get(neighbour)
            if best is None or candidate < best:
                tentative[neighbour] = candidate
                first_hops[neighbour] = link if hop is None else hop
                heapq.heappush(heap, (candidate, next(pushes), neighbour, link.dst))
    return distances, first_hops
