"""Unit tests for topology routing, anycast, TTL, and access points."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.geo import EAST_US, EUROPE_UK, NORTH_US, WEST_US
from repro.net.node import AccessPoint, Host
from repro.net.ping import ProbeTool
from repro.net.topology import Network
from repro.net.traceroute import TracerouteTool
from repro.simcore import Simulator

try:
    import networkx as nx
except ImportError:  # the routing oracle below; a test extra, not a dependency
    nx = None


def build_mesh(sim):
    network = Network(sim)
    routers = {}
    for site in (EAST_US, WEST_US, NORTH_US, EUROPE_UK):
        routers[site.name] = network.add_router(f"core-{site.name}", site)
    sites = list(routers.values())
    for i, a in enumerate(sites):
        for b in sites[i + 1 :]:
            network.connect(a, b)
    return network, routers


def test_unicast_reaches_destination(world):
    tool = ProbeTool(world.client)
    process = world.sim.spawn(tool.ping_process(world.server.ip, count=3))
    world.sim.run(until=10.0)
    assert process.value.received == 3


def test_rtt_scales_with_distance(world):
    tool = ProbeTool(world.client)
    far = world.sim.spawn(tool.ping_process(world.server.ip, count=3))
    world.sim.run(until=10.0)
    near = world.sim.spawn(tool.ping_process(world.local_server.ip, count=3))
    world.sim.run(until=20.0)
    assert far.value.avg_rtt_ms > 20 * near.value.avg_rtt_ms


def test_anycast_routes_to_nearest_member():
    sim = Simulator(seed=1)
    network, routers = build_mesh(sim)
    group = network.anycast_group("edge", "Cloudflare")
    members = {}
    for site in (EAST_US, WEST_US, EUROPE_UK):
        host = network.add_host(f"edge-{site.name}", site, provider="Cloudflare")
        network.connect(host, routers[site.name], delay_s=0.0003)
        network.join_anycast(group, host)
        members[site.name] = host
    client = network.add_host("client", EUROPE_UK)
    network.connect(client, routers[EUROPE_UK.name], delay_s=0.001)
    network.build_routes()
    assert network.anycast_member_for(client, group) is members[EUROPE_UK.name]
    tool = ProbeTool(client)
    process = sim.spawn(tool.ping_process(group.ip, count=3))
    sim.run(until=10.0)
    assert process.value.avg_rtt_ms < 10.0  # served by the local POP


def test_anycast_different_clients_different_members():
    sim = Simulator(seed=2)
    network, routers = build_mesh(sim)
    group = network.anycast_group("edge", "ANS")
    for site in (EAST_US, EUROPE_UK):
        host = network.add_host(f"pop-{site.name}", site, provider="ANS")
        network.connect(host, routers[site.name], delay_s=0.0003)
        network.join_anycast(group, host)
    c_east = network.add_host("c-east", EAST_US)
    c_eu = network.add_host("c-eu", EUROPE_UK)
    network.connect(c_east, routers[EAST_US.name], delay_s=0.001)
    network.connect(c_eu, routers[EUROPE_UK.name], delay_s=0.001)
    network.build_routes()
    east_member = network.anycast_member_for(c_east, group)
    eu_member = network.anycast_member_for(c_eu, group)
    assert east_member is not eu_member


def test_traceroute_lists_intermediate_routers(world):
    tool = TracerouteTool(world.client)
    process = world.sim.spawn(tool.trace_process(world.server.ip))
    world.sim.run(until=30.0)
    result = process.value
    assert result.reached
    kinds = [hop.kind for hop in result.hops]
    assert kinds == ["time-exceeded", "time-exceeded", "echo-reply"]
    assert result.hops[0].ip == world.r_east.ip
    assert result.hops[1].ip == world.r_west.ip


def test_traceroute_to_blocked_host_does_not_reach():
    sim = Simulator(seed=3)
    network = Network(sim)
    router = network.add_router("r", EAST_US)
    client = network.add_host("client", EAST_US)
    blocked = network.add_host(
        "blocked", EAST_US, provider="cloud", icmp_blocked=True
    )
    network.connect(client, router, delay_s=0.001)
    network.connect(router, blocked, delay_s=0.0005)
    network.build_routes()
    tool = TracerouteTool(client)
    process = sim.spawn(tool.trace_process(blocked.ip, max_hops=4))
    sim.run(until=30.0)
    result = process.value
    assert not result.reached
    assert result.hops[0].kind == "time-exceeded"
    assert result.hops[-1].kind == "timeout"


def test_icmp_blocked_host_ignores_ping_but_answers_tcp():
    sim = Simulator(seed=4)
    network = Network(sim)
    router = network.add_router("r", EAST_US)
    client = network.add_host("client", EAST_US)
    server = network.add_host("server", EAST_US, provider="cloud", icmp_blocked=True)
    network.connect(client, router, delay_s=0.001)
    network.connect(router, server, delay_s=0.0005)
    network.build_routes()
    tool = ProbeTool(client)
    icmp = sim.spawn(tool.ping_process(server.ip, count=3, timeout=0.5))
    sim.run(until=10.0)
    assert not icmp.value.reachable
    from repro.net.address import Endpoint

    tcp = sim.spawn(tool.tcp_ping_process(Endpoint(server.ip, 443), count=3))
    sim.run(until=20.0)
    assert tcp.value.reachable


def test_access_point_probes_and_forwards():
    sim = Simulator(seed=5)
    network = Network(sim)
    router = network.add_router("core", EAST_US)
    ap = network.add_access_point("ap", EAST_US)
    device = network.add_host("device", EAST_US)
    server = network.add_host("server", WEST_US, provider="cloud")
    network.connect(ap, router, delay_s=0.0008)
    network.connect(device, ap, delay_s=0.001)
    network.connect(router, server, delay_s=0.0005)
    network.build_routes()
    # AP originates probes (the paper pings from the AP itself).
    ap_tool = ProbeTool(ap)
    from_ap = sim.spawn(ap_tool.ping_process(server.ip, count=3))
    sim.run(until=10.0)
    assert from_ap.value.received == 3
    # Device traffic is forwarded through the AP.
    device_tool = ProbeTool(device)
    from_device = sim.spawn(device_tool.ping_process(server.ip, count=3))
    sim.run(until=20.0)
    assert from_device.value.received == 3
    assert from_device.value.avg_rtt_ms > from_ap.value.avg_rtt_ms


def test_ttl_expiry_generates_time_exceeded(world):
    from repro.net.address import Endpoint
    from repro.net.packet import Packet, Protocol, icmp_packet_size

    replies = []
    token = "ttl-test"
    world.client.probe_waiters[token] = replies.append
    world.client.send(
        Packet(
            src=Endpoint(world.client.ip, 0),
            dst=Endpoint(world.server.ip, 0),
            protocol=Protocol.ICMP,
            size=icmp_packet_size(),
            payload=("echo-request", token),
            ttl=1,
        )
    )
    world.sim.run(until=5.0)
    assert len(replies) == 1
    assert replies[0].payload[0] == "time-exceeded"
    assert replies[0].src.ip == world.r_east.ip


# ----------------------------------------------------------------------
# Tie order: equal-delay paths resolve the way networkx's Dijkstra does
# ----------------------------------------------------------------------
def test_equal_cost_paths_keep_the_first_path_found():
    sim = Simulator(seed=6)
    network = Network(sim)
    client = network.add_host("client", EAST_US)
    server = network.add_host("server", EAST_US, provider="cloud")
    north = network.add_router("r-north", EAST_US)
    south = network.add_router("r-south", EAST_US)
    # client's egress lists r-south first; server's lists r-north first.
    network.connect(client, south, delay_s=0.001)
    network.connect(client, north, delay_s=0.001)
    network.connect(north, server, delay_s=0.001)
    network.connect(south, server, delay_s=0.001)
    group = network.anycast_group("edge", "Cloudflare")
    for name, router in (("pop-west", north), ("pop-east", south)):
        pop = network.add_host(name, EAST_US, provider="Cloudflare")
        network.connect(pop, router, delay_s=0.001)
        network.join_anycast(group, pop)
    network.build_routes()
    # Two 2 ms paths each way: the one pushed first wins, not the name.
    assert client.routes[server.ip.value] is client.egress["r-south"]
    assert server.routes[client.ip.value] is server.egress["r-north"]
    # Two members 2 ms away: the lower name wins, routed along its path.
    pop_east = network.nodes["pop-east"]
    assert network.anycast_member_for(client, group) is pop_east
    assert network.anycast_member_for(server, group) is pop_east
    assert client.routes[group.ip.value] is client.egress["r-south"]
    assert server.routes[group.ip.value] is server.egress["r-south"]


DELAYS_S = (0.001, 0.002, 0.003)


def _random_network(data) -> Network:
    """A connected network with 1-3 ms links, so equal-delay paths abound."""
    network = Network(Simulator(seed=0))
    n = data.draw(st.integers(3, 10), label="nodes")
    nodes = []
    for name in data.draw(st.permutations([f"node-{i}" for i in range(n)])):
        kind = data.draw(st.sampled_from(("router", "host", "access_point")))
        nodes.append(getattr(network, f"add_{kind}")(name, EAST_US))
    tree = [(data.draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    extra = data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n)
    )
    connected = set()
    for a, b in data.draw(st.permutations(tree + extra)):
        if a != b and frozenset((a, b)) not in connected:
            connected.add(frozenset((a, b)))
            delay_s = data.draw(st.sampled_from(DELAYS_S))
            network.connect(nodes[a], nodes[b], delay_s=delay_s)
    hosts = [node for node in nodes if isinstance(node, Host)]
    for index in range(data.draw(st.integers(0, 2)) if hosts else 0):
        group = network.anycast_group(f"group-{index}", "Cloudflare")
        members = data.draw(st.lists(st.sampled_from(hosts), min_size=1, max_size=3))
        for host in dict.fromkeys(members):
            network.join_anycast(group, host)
    return network


def _networkx_routes(network: Network, graph) -> dict:
    """Each node's next-hop table as networkx's all-pairs Dijkstra picks it."""
    paths = dict(nx.all_pairs_dijkstra(graph, weight="weight"))
    hosts = [n for n in network.nodes.values() if isinstance(n, (Host, AccessPoint))]
    tables = {}
    for node in network.nodes.values():
        distances, routes = paths[node.name]
        table = tables[node.name] = {}
        for host in hosts:
            if host is not node:
                table[host.ip.value] = node.egress[routes[host.name][1]]
        for group in network.anycast_groups.values():
            nearest = min(group.members, key=lambda m: (distances[m.name], m.name))
            if nearest is not node:
                table[group.ip.value] = node.egress[routes[nearest.name][1]]
    return tables


@pytest.mark.skipif(nx is None, reason="networkx, the routing oracle, is not installed")
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_routes_match_networkx_dijkstra(data):
    network = _random_network(data)
    network.build_routes()
    graph = nx.DiGraph()
    graph.add_nodes_from(network.nodes)
    for link in network.links():
        graph.add_edge(link.src.name, link.dst.name, weight=link.delay_s)
    expected = _networkx_routes(network, graph)
    for node in network.nodes.values():
        assert list(node.routes.items()) == list(expected[node.name].items())
        lengths = nx.single_source_dijkstra_path_length(graph, node.name, weight="weight")
        for group in network.anycast_groups.values():
            member = min(group.members, key=lambda m: (lengths[m.name], m.name))
            assert network.anycast_member_for(node, group) is member
