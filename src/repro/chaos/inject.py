"""The fault-injection engine: scenarios interpreted against a testbed.

A :class:`FaultInjector` arms one scenario x intensity on a live
:class:`~repro.measure.session.Testbed` *before* the simulation runs:
every activate/heal hook is a kernel-scheduled callback, so fault
timing rides the same deterministic event heap as everything else and
golden-trace determinism holds per seed.  The injector drives exactly
four kinds of actuator — :class:`~repro.net.netem.NetemQdisc`
configure/reset, :class:`~repro.net.link.Link` up/down, server
lifecycle (crash, placement failover/re-deploy, restart), and crowd
peers that join and stop (:meth:`~repro.measure.session.Testbed.add_peers`)
— and records a fault-event timeline for the verdict layer and the
obs tracer.
"""

from __future__ import annotations

import dataclasses
import typing

from ..net.address import Endpoint
from ..obs.context import obs_of
from ..server.placement import FIXED, PlacementError, deploy_placement
from ..server.rooms import RoomFullError
from .scenarios import ChaosScenario

#: Platform data transports (mirrors repro.platforms.spec without the
#: import cycle risk of pulling the full spec module at import time).
UDP_TRANSPORT = "udp"


class FaultInjector:
    """Schedules one scenario's activate/heal hooks on a testbed."""

    def __init__(
        self, testbed, scenario: ChaosScenario, intensity: str
    ) -> None:
        self.testbed = testbed
        self.scenario = scenario
        self.intensity = intensity
        self.params = scenario.params(intensity)  # validates the name
        self.sim = testbed.sim
        self._obs = obs_of(testbed.sim)
        #: (sim_time, label) pairs appended as hooks actually fire —
        #: kernel-ordered, so the timeline is deterministic per seed.
        self.events: typing.List[typing.Tuple[float, str]] = []
        self.fault_at: typing.Optional[float] = None
        self.heal_at: typing.Optional[float] = None
        #: Flash-crowd accounting (zero for every other scenario).
        self.crowd_attempted = 0
        self.rejected_users = 0
        #: Network-wide drop total snapshotted as the fault strikes;
        #: the verdict subtracts it so packets_lost counts fault-era
        #: drops only.
        self.drops_before_fault: typing.Optional[int] = None
        self._state: dict = {}

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(self, fault_at: float) -> float:
        """Schedule all hooks; returns the heal time (recovery start)."""
        if self.fault_at is not None:
            raise RuntimeError("injector already armed")
        self.fault_at = fault_at
        # Snapshot first: same timestamp, earlier sequence number, so it
        # runs before any fault hook scheduled below.
        self.sim.schedule_at(fault_at, self._snapshot_drops)
        arm = getattr(self, "_arm_" + self.scenario.kind.replace("-", "_"), None)
        if arm is None:
            raise ValueError(
                f"no injector for scenario kind {self.scenario.kind!r}"
            )
        self.heal_at = arm(fault_at)
        return self.heal_at

    def _hook(self, when: float, label: str, fn, *args) -> None:
        """Schedule ``fn(*args)`` at ``when``, recorded and traced."""

        def fire() -> None:
            self.events.append((round(self.sim.now, 6), label))
            if self._obs.enabled:
                self._obs.tracer.emit(
                    "chaos.fault",
                    scenario=self.scenario.name,
                    intensity=self.intensity,
                    phase=label,
                    at=self.sim.now,
                )
                self._obs.registry.counter(
                    "chaos.fault_events",
                    scenario=self.scenario.name,
                    phase=label.split("#")[0],
                ).inc()
            fn(*args)

        self.sim.schedule_at(when, fire)

    def _snapshot_drops(self) -> None:
        self.drops_before_fault = network_drop_total(self.testbed)

    # ------------------------------------------------------------------
    # Scenario implementations
    # ------------------------------------------------------------------
    def _arm_link_flap(self, fault_at: float) -> float:
        flaps = int(self.params["flaps"])
        down_s, up_s = self.params["down_s"], self.params["up_s"]
        station = self.testbed.u1

        def set_links(up: bool) -> None:
            station.uplink.set_up(up)
            station.downlink.set_up(up)

        t = fault_at
        for index in range(flaps):
            self._hook(t, f"link-down#{index + 1}", set_links, False)
            self._hook(t + down_s, f"link-up#{index + 1}", set_links, True)
            t += down_s + up_s
        return t - up_s  # the final link-up is the heal point

    def _arm_loss_burst(self, fault_at: float) -> float:
        loss = self.params["loss_rate"]
        burst_s = self.params["burst_s"]
        bursts = int(self.params["bursts"])
        gap_s = self.params.get("gap_s", 0.0)
        station = self.testbed.u1

        def burst_on() -> None:
            station.netem_up.configure(loss_rate=loss)
            station.netem_down.configure(loss_rate=loss)

        def burst_off() -> None:
            # reset() (not clear()) so bytes stuck behind the loss
            # stage's rate state flush immediately at heal.
            station.netem_up.reset()
            station.netem_down.reset()

        t = fault_at
        for index in range(bursts):
            self._hook(t, f"loss-on#{index + 1}", burst_on)
            self._hook(t + burst_s, f"loss-off#{index + 1}", burst_off)
            t += burst_s + gap_s
        return t - gap_s

    def _arm_server_crash(self, fault_at: float) -> float:
        detect_s = self.params["detect_s"]
        outage_s = self.params["outage_s"]
        testbed = self.testbed
        udp = testbed.profile.data.transport == UDP_TRANSPORT
        state = self._state

        def crash() -> None:
            # Resolved at fault time: data_server only exists once the
            # client has joined (arm() runs before the sim starts).
            server = testbed.u1.client.data_server
            state["server"], state["host"] = server, server.host
            for link in links_of_node(testbed.network, server.host.name):
                link.set_up(False)

        def failover() -> None:
            new_host = self._failover_host(state["host"])
            self._rebind_members(state["server"], new_host)

        def restart() -> None:
            for link in links_of_node(testbed.network, state["host"].name):
                link.set_up(True)

        self._hook(fault_at, "server-crash", crash)
        if udp:
            self._hook(fault_at + detect_s, "failover", failover)
        self._hook(fault_at + outage_s, "server-restart", restart)
        # UDP platforms start recovering at failover; HTTPS (Hubs) only
        # once the host itself returns.
        return fault_at + (detect_s if udp else outage_s)

    def _arm_regional_outage(self, fault_at: float) -> float:
        outage_s = self.params["outage_s"]
        testbed = self.testbed
        state = self._state

        def outage() -> None:
            host = testbed.u1.client.data_server.host
            site = site_of_host(testbed.deployment.data_placement, host)
            router = testbed.site_routers[site]
            state["links"] = links_of_node(testbed.network, router.name)
            state["region"] = site
            for link in state["links"]:
                link.set_up(False)

        def restore() -> None:
            for link in state["links"]:
                link.set_up(True)

        self._hook(fault_at, "region-down", outage)
        self._hook(fault_at + outage_s, "region-up", restore)
        return fault_at + outage_s

    def _arm_dns_misdirection(self, fault_at: float) -> float:
        duration_s = self.params["duration_s"]
        detour_s = self.params["detour_delay_s"]
        testbed = self.testbed
        station = testbed.u1
        state = self._state

        def misdirect() -> None:
            client = station.client
            deployment = testbed.deployment
            hosts = deployment.data_placement.all_hosts
            udp = testbed.profile.data.transport == UDP_TRANSPORT
            others = [h for h in hosts if h is not client.data_server.host]
            if udp and others:
                # Farthest deployed instance — ties broken by name so
                # the pick is deterministic.
                far = max(
                    others,
                    key=lambda h: (
                        client.host.location.distance_km(h.location),
                        h.name,
                    ),
                )
                state["orig"] = (client.data_server, client.data_endpoint)
                self._rebind_members(
                    client.data_server, far, only_user=client.user_id
                )
            else:
                # Single-instance or HTTPS deployment: the wrong answer
                # adds a detour's worth of path latency instead.
                station.netem_up.configure(delay_s=detour_s)
                station.netem_down.configure(delay_s=detour_s)
                state["netem"] = True

        def heal() -> None:
            if state.get("netem"):
                station.netem_up.reset()
                station.netem_down.reset()
                return
            client = station.client
            server, endpoint = state["orig"]
            client.data_server = server
            client.data_endpoint = endpoint
            binding = getattr(client, "binding", None)
            if binding is not None:
                binding.server = server

        self._hook(fault_at, "misdirect", misdirect)
        self._hook(fault_at + duration_s, "dns-heal", heal)
        return fault_at + duration_s

    def _arm_flash_crowd(self, fault_at: float) -> float:
        members = int(self.params["members"])
        ramp_s = self.params["ramp_s"]
        hold_s = self.params["hold_s"]
        crowd: list = []

        def join_batch(count: int) -> None:
            for _ in range(count):
                self.crowd_attempted += 1
                try:
                    crowd.extend(self.testbed.add_peers(1))
                except RoomFullError:
                    self.rejected_users += 1

        def disperse() -> None:
            for peer in crowd:
                peer.stop()

        batches = max(1, int(round(ramp_s)))
        step = ramp_s / batches
        base, extra = divmod(members, batches)
        for index in range(batches):
            count = base + (1 if index < extra else 0)
            if count:
                self._hook(
                    fault_at + (index + 1) * step,
                    f"crowd-join#{index + 1}",
                    join_batch,
                    count,
                )
        heal_at = fault_at + ramp_s + hold_s
        self._hook(heal_at, "crowd-disperse", disperse)
        return heal_at

    # ------------------------------------------------------------------
    # Failover plumbing
    # ------------------------------------------------------------------
    def _failover_host(self, crashed_host):
        """A surviving instance for the crashed host's room members.

        Prefers another deployed region (resolved via
        ``host_for(region=...)``, the loud-failure path), then a spare
        instance in the same region, and finally re-deploys a fresh
        instance at another backbone site.
        """
        testbed = self.testbed
        client = testbed.u1.client
        placement = testbed.deployment.data_placement
        crashed_site = site_of_host(placement, crashed_host)
        for site in sorted(placement.hosts_by_site):
            if site == crashed_site:
                continue
            try:
                return placement.host_for(
                    client.host, client.user_index, region=site
                )
            except PlacementError:
                continue
        spares = [
            h
            for h in placement.hosts_by_site.get(crashed_site, [])
            if h is not crashed_host
        ]
        if spares:
            return spares[0]
        return self._redeploy(crashed_site)

    def _redeploy(self, crashed_site: str):
        """Deploy one replacement instance at another backbone site."""
        testbed = self.testbed
        deployment = testbed.deployment
        placement = deployment.data_placement
        target = next(
            site for site in sorted(testbed.site_routers) if site != crashed_site
        )
        spec = dataclasses.replace(
            placement.spec, kind=FIXED, site=target, sites=None,
            instances_per_site=1, hostname=None,
        )
        fresh = deploy_placement(
            testbed.network,
            spec,
            f"{testbed.profile.name}-data-failover",
            testbed.site_routers,
        )
        template = deployment.data_servers[
            next(iter(deployment.data_servers))
        ]
        new_host = fresh.all_hosts[0]
        deployment.data_servers[new_host.name] = type(template)(
            self.sim,
            new_host,
            deployment.rooms,
            processing_delay=template.processing_delay,
            forward_fraction=template.forward_fraction,
        )
        placement.hosts_by_site.setdefault(target, []).append(new_host)
        testbed.network.build_routes()
        return new_host

    def _rebind_members(
        self, old_server, new_host, only_user: typing.Optional[str] = None
    ) -> None:
        """Point clients and room bindings at the surviving server."""
        deployment = self.testbed.deployment
        new_server = deployment.data_servers[new_host.name]
        endpoint = Endpoint(new_host.ip, new_server.port)
        for station in self.testbed.stations:
            client = station.client
            if only_user is not None and client.user_id != only_user:
                continue
            if client.data_server is old_server:
                client.data_server = new_server
                client.data_endpoint = endpoint
        for room in deployment.rooms.rooms.values():
            for binding in room.members.values():
                if only_user is not None and binding.user_id != only_user:
                    continue
                if binding.server is old_server:
                    binding.server = new_server


# ----------------------------------------------------------------------
# Topology helpers (shared with the verdict layer)
# ----------------------------------------------------------------------
def links_of_node(network, node_name: str) -> list:
    """Every directed link touching ``node_name``: inbound links, then
    outbound ones, each sorted by neighbour name."""
    inbound = [link for link in network.links() if link.dst.name == node_name]
    outbound = network.nodes[node_name].egress.values()
    return sorted(inbound, key=lambda link: link.src.name) + sorted(
        outbound, key=lambda link: link.dst.name
    )


def site_of_host(placement, host) -> str:
    """The deployment site a server host belongs to."""
    for site, hosts in placement.hosts_by_site.items():
        if any(h is host for h in hosts):
            return site
    raise PlacementError(
        f"host {host.name!r} belongs to no deployed site "
        f"(deployed: {sorted(placement.hosts_by_site)})"
    )


def network_drop_total(testbed) -> int:
    """Total packets dropped anywhere: links, qdiscs, access netem."""
    total = 0
    for link in testbed.network.links():
        total += link.dropped_packets
        if link.qdisc is not None:
            total += link.qdisc.dropped_packets
    return total
