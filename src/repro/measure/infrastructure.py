"""Infrastructure probing: server locations, owners, RTTs (Table 2).

Reproduces the Sec. 4.2 methodology: from several vantage points, ping
(ICMP, falling back to TCP SYN probes, falling back to WebRTC RTCP
statistics — the Hubs voice server blocks the first two), traceroute
toward each channel's advertised server address, geolocate it, check
WHOIS ownership, and run the anycast inference of
:mod:`repro.core.anycast`.
"""

from __future__ import annotations

import dataclasses
import typing

from ..core.anycast import AnycastInference, VantageProbe, infer_anycast
from ..net.address import Endpoint, IPAddress
from ..net.geo import EAST_US, MIDDLE_EAST, NORTH_US, Location
from ..net.ping import PingResult, ProbeTool
from ..net.traceroute import TracerouteTool
from ..net.webrtc import WebRtcSession
from ..simcore import Timeout
from .session import Testbed
from .stats import Summary, summarize

#: Vantage points used in Sec. 4.2 (plus the east-coast testbed).
VANTAGE_SITES = (NORTH_US, EAST_US, MIDDLE_EAST)


@dataclasses.dataclass
class ChannelProbeReport:
    """Everything learned about one channel's server infrastructure."""

    channel: str  # "control", "data", or "voice"
    protocol: str  # "HTTPS", "UDP", "RTP/RTCP"
    east_ip: IPAddress
    owner: typing.Optional[str]
    anycast: AnycastInference
    location: str  # region string, or "-" when anycast
    east_rtt: Summary
    rtt_method: str  # "icmp", "tcp", or "webrtc"
    hostname: typing.Optional[str]
    probes: typing.List[VantageProbe]
    same_server_for_colocated_users: bool


@dataclasses.dataclass
class InfrastructureReport:
    """A full Table 2 entry for one platform."""

    platform: str
    control: ChannelProbeReport
    data: typing.List[ChannelProbeReport]  # Hubs has two data rows


def probe_infrastructure(platform: str, seed: int = 0) -> InfrastructureReport:
    """Run the full Sec. 4.2 probing campaign against one platform."""
    # Stations: one per vantage plus a second east-coast user for the
    # same-server check (the paper's two co-located test users).
    locations = list(VANTAGE_SITES) + [EAST_US]
    testbed = Testbed(platform, n_users=len(locations), user_locations=locations)
    east_index = locations.index(EAST_US)
    campaign = _ProbeCampaign(testbed, east_index)
    profile = testbed.profile

    control = campaign.probe_channel(
        "control",
        "HTTPS",
        endpoint_of=lambda host, idx: testbed.deployment.control_endpoint_for(host, idx),
        hostname=profile.control.placement.hostname,
    )
    data_reports = []
    if profile.data.transport == "https":
        https_report = campaign.probe_channel(
            "data",
            "HTTPS",
            endpoint_of=lambda host, idx: testbed.deployment.data_endpoint_for(host, idx),
            hostname=profile.data.placement.hostname,
        )
        data_reports.append(https_report)
    else:
        data_reports.append(
            campaign.probe_channel(
                "data",
                "UDP",
                endpoint_of=lambda host, idx: testbed.deployment.data_endpoint_for(
                    host, idx
                ),
                hostname=profile.data.placement.hostname,
            )
        )
    if profile.data.voice_placement is not None:
        data_reports.append(
            campaign.probe_channel(
                "voice",
                "RTP/RTCP",
                endpoint_of=lambda host, idx: testbed.deployment.voice_endpoint_for(
                    host, idx
                ),
                hostname=None,
            )
        )
    return InfrastructureReport(
        platform=profile.name, control=control, data=data_reports
    )


class _ProbeCampaign:
    """Shared probing machinery over one testbed."""

    def __init__(self, testbed: Testbed, east_index: int) -> None:
        self.testbed = testbed
        self.east_index = east_index

    def probe_channel(
        self,
        channel: str,
        protocol: str,
        endpoint_of: typing.Callable,
        hostname: typing.Optional[str],
    ) -> ChannelProbeReport:
        testbed = self.testbed
        probes: typing.List[VantageProbe] = []
        east_rtts: typing.List[float] = []
        east_method = "icmp"
        east_ip: typing.Optional[IPAddress] = None
        for station in testbed.stations[: len(VANTAGE_SITES)]:
            # Probe the address a *first* session would be given at each
            # vantage (index 0): anycast and georouted addresses do not
            # depend on which of the paper's two users asks.
            endpoint = endpoint_of(station.host, 0)
            rtt_result, method = self._measure_rtt(station, endpoint)
            trace = self._traceroute(station, endpoint.ip)
            router_path = tuple(
                hop.ip
                for hop in trace.hops
                if hop.kind == "time-exceeded" and hop.ip is not None
            )
            probes.append(
                VantageProbe(
                    vantage=station.location.name,
                    location=station.location,
                    server_ip=endpoint.ip,
                    rtt_ms=rtt_result.avg_rtt_ms if rtt_result else None,
                    path_ips=router_path,
                )
            )
            if station.location is EAST_US:
                east_ip = endpoint.ip
                east_method = method
                east_rtts = [r * 1000.0 for r in rtt_result.rtts_s] if rtt_result else []
        inference = infer_anycast(probes)
        location = "-" if inference.anycast else self._geolocate(east_ip)
        owner = testbed.network.whois(east_ip)
        return ChannelProbeReport(
            channel=channel,
            protocol=protocol,
            east_ip=east_ip,
            owner=owner,
            anycast=inference,
            location=location,
            east_rtt=summarize(east_rtts),
            rtt_method=east_method,
            hostname=hostname,
            probes=probes,
            same_server_for_colocated_users=self._same_server(endpoint_of),
        )

    # ------------------------------------------------------------------
    # Probing primitives (run to completion on the testbed's clock)
    # ------------------------------------------------------------------
    def _measure_rtt(self, station, endpoint: Endpoint):
        sim = self.testbed.sim
        tool = ProbeTool(station.ap)
        process = sim.spawn(tool.ping_process(endpoint.ip, count=10))
        sim.run(until=sim.now + 15.0)
        result: PingResult = process.value
        if result is not None and result.reachable:
            return result, "icmp"
        # ICMP blocked: TCP SYN probe (Sec. 4.2).
        process = sim.spawn(tool.tcp_ping_process(endpoint, count=10))
        sim.run(until=sim.now + 15.0)
        result = process.value
        if result is not None and result.reachable:
            return result, "tcp"
        # Both blocked (the Hubs voice SFU): WebRTC RTCP statistics,
        # measured from the device like Chrome's webrtc-internals.
        return self._webrtc_rtt(station, endpoint), "webrtc"

    def _webrtc_rtt(self, station, endpoint: Endpoint) -> typing.Optional[PingResult]:
        sim = self.testbed.sim
        session = WebRtcSession(station.host, 26_000 + station.index, endpoint)
        session.start()
        sim.run(until=sim.now + 13.0)
        session.stop()
        samples = session.rtcp.rtt_samples
        if not samples:
            return None
        return PingResult(endpoint.ip, len(samples), len(samples), list(samples))

    def _traceroute(self, station, ip: IPAddress):
        sim = self.testbed.sim
        tool = TracerouteTool(station.ap)
        process = sim.spawn(tool.trace_process(ip))
        sim.run(until=sim.now + 30.0)
        return process.value

    def _geolocate(self, ip: IPAddress) -> str:
        """MaxMind/ipinfo equivalent: region of the host owning ``ip``.

        Anycast addresses geolocate ambiguously (many hosts, one IP) —
        the paper's Table 2 prints '-' for them; here the ambiguity is
        surfaced explicitly.
        """
        if ip.value in self.testbed.network.anycast_groups:
            return "anycast"
        host = self.testbed.network.host_by_ip(ip)
        if host is None:
            return "unknown"
        from ..net.geo import region_label

        return region_label(host.location)

    def _same_server(self, endpoint_of: typing.Callable) -> bool:
        """Do the two co-located east-coast users share a server?"""
        east = self.testbed.stations[self.east_index]
        # Two sessions from the same campus network: the paper's two
        # co-located test users (user indexes 0 and 1).
        first = endpoint_of(east.host, 0)
        second = endpoint_of(east.host, 1)
        return first.ip == second.ip


@dataclasses.dataclass
class RegionProbe:
    """RTTs observed from one non-default vantage (Sec. 4.2's extra
    experiments in Los Angeles and the United Kingdom)."""

    platform: str
    vantage: str
    control_rtt_ms: typing.Optional[float]
    data_rtt_ms: typing.Optional[float]
    voice_rtt_ms: typing.Optional[float]
    control_server_region: str
    data_server_region: str


class PlatformUnavailableError(RuntimeError):
    """The platform does not operate in the probed region (Worlds in
    Europe at measurement time)."""


def probe_from_vantage(platform: str, vantage: Location, seed: int = 0) -> RegionProbe:
    """Measure control/data RTTs from a single vantage point."""
    from ..platforms.profiles import get_profile

    profile = get_profile(platform)
    if vantage.region.startswith("eu") and not profile.available_in_europe:
        raise PlatformUnavailableError(
            f"{profile.display_name} is not available in Europe"
        )
    testbed = Testbed(platform, n_users=1, user_locations=[vantage], seed=seed)
    campaign = _ProbeCampaign(testbed, east_index=0)
    station = testbed.stations[0]
    control_endpoint = testbed.deployment.control_endpoint_for(station.host, 0)
    data_endpoint = testbed.deployment.data_endpoint_for(station.host, 0)
    control_rtt, _ = campaign._measure_rtt(station, control_endpoint)
    data_rtt, _ = campaign._measure_rtt(station, data_endpoint)
    voice_rtt_ms = None
    voice_endpoint = testbed.deployment.voice_endpoint_for(station.host, 0)
    if voice_endpoint is not None:
        voice_result, _ = (
            campaign._webrtc_rtt(station, voice_endpoint),
            "webrtc",
        )
        if voice_result is not None:
            voice_rtt_ms = voice_result.avg_rtt_ms
    return RegionProbe(
        platform=profile.name,
        vantage=vantage.name,
        control_rtt_ms=control_rtt.avg_rtt_ms if control_rtt else None,
        data_rtt_ms=data_rtt.avg_rtt_ms if data_rtt else None,
        voice_rtt_ms=voice_rtt_ms,
        control_server_region=campaign._geolocate(control_endpoint.ip),
        data_server_region=campaign._geolocate(data_endpoint.ip),
    )


def regional_study(
    vantages: typing.Optional[typing.Mapping[str, Location]] = None,
    platforms: typing.Sequence[str] = (
        "altspacevr",
        "hubs",
        "recroom",
        "vrchat",
        "worlds",
    ),
    seed: int = 0,
) -> typing.List[RegionProbe]:
    """Sec. 4.2's follow-up: probe from Los Angeles and the U.K.

    Expected shapes: AltspaceVR's and Hubs' *data* servers stay in the
    western US (~150 ms / ~140 ms from Europe) while their control
    planes are near everywhere; Rec Room/VRChat stay <5 ms; Worlds is
    unavailable in Europe.
    """
    from ..net.geo import EUROPE_UK, LOS_ANGELES

    if vantages is None:
        vantages = {"los-angeles": LOS_ANGELES, "united-kingdom": EUROPE_UK}
    probes = []
    for vantage_name, location in vantages.items():
        for platform in platforms:
            try:
                probes.append(probe_from_vantage(platform, location, seed=seed))
            except PlatformUnavailableError:
                probes.append(
                    RegionProbe(
                        platform=platform,
                        vantage=location.name,
                        control_rtt_ms=None,
                        data_rtt_ms=None,
                        voice_rtt_ms=None,
                        control_server_region="unavailable",
                        data_server_region="unavailable",
                    )
                )
    return probes
