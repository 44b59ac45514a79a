"""The measurement testbed (Sec. 3.2 of the paper).

A :class:`Testbed` builds the full world for one experiment:

* an Internet backbone (core routers at every modelled metro, meshed
  with geographic propagation delays),
* the platform's deployment (control/data/voice servers per its
  placement profile),
* one station per user: device host <-> WiFi AP <-> nearest core
  router, with a Wireshark-style sniffer and tc-netem qdiscs on the
  access links, an OVR-metrics sampler, and a platform client,
* optional lightweight crowd peers for public-event experiments.

Both test users sit on the U.S. east coast by default, behind two
different APs on the same campus network, exactly as in the paper.
"""

from __future__ import annotations

import dataclasses
import typing

from ..capture.sniffer import Sniffer
from ..device.headset import HeadsetProfile, device as device_profile
from ..device.metrics import OvrMetricsSampler
from ..net.dns import Resolver
from ..net.geo import (
    ALL_SITES,
    EAST_US,
    EUROPE_UK,
    LOS_ANGELES,
    MIDDLE_EAST,
    NORTH_US,
    WEST_US,
    Location,
)
from ..net.netem import NetemQdisc
from ..net.topology import ACCESS_BANDWIDTH, Network
from ..platforms.base import LightweightPeer, PlatformClient, PlatformDeployment
from ..platforms.profiles import get_profile
from ..platforms.spec import PlatformProfile
from ..avatar.pose import Vec3
from ..simcore import Simulator

#: One-way delay AP <-> core router (campus aggregation folded in).
AP_UPLINK_DELAY_S = 0.0008
#: One-way WiFi delay device <-> AP.
WIFI_DELAY_S = 0.001
DEFAULT_ROOM = "event-1"

BACKBONE_SITES = (EAST_US, NORTH_US, WEST_US, LOS_ANGELES, EUROPE_UK, MIDDLE_EAST)


@dataclasses.dataclass
class UserStation:
    """Everything attached to one test user."""

    index: int
    user_id: str
    location: Location
    device: HeadsetProfile
    host: object
    ap: object
    uplink: object  # device -> AP link (netem_up lives here)
    downlink: object  # AP -> device link (netem_down lives here)
    sniffer: Sniffer
    netem_up: NetemQdisc
    netem_down: NetemQdisc
    client: PlatformClient
    sampler: OvrMetricsSampler


class Testbed:
    """A complete, runnable measurement setup for one platform."""

    #: Not a pytest test class, despite the name.
    __test__ = False

    def __init__(
        self,
        platform: typing.Union[str, PlatformProfile] = "vrchat",
        n_users: int = 2,
        seed: int = 0,
        user_locations: typing.Optional[typing.Sequence[Location]] = None,
        devices: typing.Optional[typing.Sequence[str]] = None,
        room_id: str = DEFAULT_ROOM,
        muted: bool = True,
        retain_records: bool = True,
        obs=None,
    ) -> None:
        """``retain_records=False`` puts every station's sniffer in
        streaming mode: register accumulators via
        ``station.sniffer.stream_bins(...)`` before running, and no
        per-packet :class:`~repro.capture.sniffer.PacketRecord` objects
        are kept (long runs then need O(bins) capture memory).

        ``obs`` is handed straight to the :class:`Simulator` — pass
        ``Observability(trace=False)`` (what
        :func:`~repro.obs.MetricsOnlyObservability` returns) to light up
        the metric registry (e.g. for :mod:`repro.qoe`) without the
        tracer and per-event kernel profiling of ``Observability()``.
        Every configuration runs the same simulation."""
        if isinstance(platform, PlatformProfile):
            self.profile = platform
        else:
            self.profile = get_profile(platform)
        self.room_id = room_id
        self.sim = Simulator(seed=seed, obs=obs)
        self.network = Network(self.sim)
        self.resolver = Resolver()

        # Backbone mesh.
        self.site_routers = {}
        for site in BACKBONE_SITES:
            self.site_routers[site.name] = self.network.add_router(
                f"core-{site.name}", site
            )
        sites = list(BACKBONE_SITES)
        for i, a in enumerate(sites):
            for b in sites[i + 1 :]:
                # A touch of propagation jitter gives the sub-millisecond
                # RTT standard deviations the paper's Table 2 reports.
                self.network.connect(
                    self.site_routers[a.name],
                    self.site_routers[b.name],
                    jitter_s=0.0002,
                )

        # Platform deployment.
        self.deployment = PlatformDeployment(
            self.sim,
            self.network,
            self.profile,
            self.site_routers,
            resolver=self.resolver,
        )

        # User stations.
        locations = list(user_locations or [EAST_US] * n_users)
        if len(locations) != n_users:
            raise ValueError(
                f"user_locations has {len(locations)} entries for {n_users} users"
            )
        device_names = list(devices or ["quest2"] * n_users)
        if len(device_names) != n_users:
            raise ValueError(
                f"devices has {len(device_names)} entries for {n_users} users"
            )
        self._n_users = n_users
        self._muted = muted
        self._retain_records = retain_records
        self.stations: typing.List[UserStation] = []
        for index in range(n_users):
            self.stations.append(
                self._make_station(index, locations[index], device_names[index])
            )
        self.peers: typing.List[LightweightPeer] = []
        self.network.build_routes()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _make_station(self, index: int, location: Location, device_name: str) -> UserStation:
        user_id = f"u{index + 1}"
        core = self.site_routers[_nearest_site_name(location)]
        ap = self.network.add_access_point(f"ap-{user_id}", location)
        self.network.connect(ap, core, delay_s=AP_UPLINK_DELAY_S, jitter_s=0.0001)
        host = self.network.add_host(user_id, location)
        uplink, downlink = self.network.connect(
            host, ap, bandwidth_bps=ACCESS_BANDWIDTH, delay_s=WIFI_DELAY_S
        )
        netem_up = NetemQdisc(self.sim, rng_name=f"netem-up-{user_id}")
        netem_down = NetemQdisc(self.sim, rng_name=f"netem-down-{user_id}")
        uplink.attach_qdisc(netem_up)
        downlink.attach_qdisc(netem_down)
        sniffer = Sniffer(
            f"ap-{user_id}-capture", retain_records=self._retain_records
        )
        sniffer.attach_access_links(uplink, downlink)
        client = PlatformClient(
            self.sim,
            self.deployment,
            host,
            user_id,
            index,
            device=device_profile(device_name),
            muted=self._muted,
        )
        # Users stand on a small circle around the room centre, facing
        # inward — with two users they face each other; crowd peers are
        # placed on a tighter inner circle so they all sit inside the
        # observer's field of view (the paper's controlled setup, where
        # U1 sees every avatar until turning away).
        import math as _math

        angle = 2 * _math.pi * index / max(2, self._n_users)
        home = Vec3(1.5 * _math.cos(angle), 0.0, 1.5 * _math.sin(angle))
        client.pose.position = home.copy()
        from ..avatar.motion import Mingle

        client.motion = Mingle(home=home)
        sampler = OvrMetricsSampler(self.sim, client)
        return UserStation(
            index=index,
            user_id=user_id,
            location=location,
            device=device_profile(device_name),
            host=host,
            ap=ap,
            uplink=uplink,
            downlink=downlink,
            sniffer=sniffer,
            netem_up=netem_up,
            netem_down=netem_down,
            client=client,
            sampler=sampler,
        )

    # ------------------------------------------------------------------
    # Experiment drivers
    # ------------------------------------------------------------------
    def start_all(
        self,
        join_at: typing.Union[float, typing.Sequence[float]] = 2.0,
        sample_metrics: bool = True,
    ) -> None:
        """Start every client; scalar or per-user join times."""
        if isinstance(join_at, (int, float)):
            join_times = [float(join_at)] * len(self.stations)
        else:
            join_times = list(join_at)
        for station, when in zip(self.stations, join_times):
            station.client.start(when, self.room_id)
            if sample_metrics:
                station.sampler.start()

    def add_peers(
        self,
        count: int,
        join_times: typing.Optional[typing.Sequence[float]] = None,
        circle_radius: float = 0.8,
    ) -> typing.List[LightweightPeer]:
        """Add lightweight crowd peers arranged on a circle."""
        import math

        start_index = len(self.peers)
        new_peers = []
        for offset in range(count):
            index = start_index + offset
            angle = 2 * math.pi * (index % 16) / 16
            position = Vec3(
                circle_radius * math.cos(angle), 0.0, circle_radius * math.sin(angle)
            )
            peer = LightweightPeer(
                self.sim,
                self.deployment,
                f"peer-{index + 1}",
                self.room_id,
                position,
            )
            when = join_times[offset] if join_times else 2.0
            peer.start(when)
            new_peers.append(peer)
        self.peers.extend(new_peers)
        return new_peers

    def add_fluid_crowd(
        self, count: int = 0, at: float = 2.0, circle_radius: float = 0.8
    ):
        """An aggregated crowd behind the same servers (hybrid fidelity).

        One :class:`~repro.scale.hybrid.FluidCrowd` process injects all
        crowd members' updates at the server — byte-identical on the
        observed stations' access links to per-peer injection, at O(1)
        simulator processes instead of O(crowd).
        """
        from ..scale.hybrid import FluidCrowd

        crowd = FluidCrowd(
            self.sim, self.deployment, self.room_id, circle_radius=circle_radius
        )
        crowd.start(at, initial_members=count)
        return crowd

    def run(self, until: float) -> float:
        """Advance the simulation to absolute time ``until``."""
        return self.sim.run(until=until)

    @property
    def u1(self) -> UserStation:
        return self.stations[0]

    @property
    def u2(self) -> UserStation:
        if len(self.stations) < 2:
            raise IndexError("testbed has no second user")
        return self.stations[1]


def download_drain_s(profile) -> float:
    """Settle time covering a platform's per-join download.

    Hubs re-fetches ~20 MB from the west coast on every join; at TCP
    pace over a ~75 ms RTT that takes tens of seconds, and measurement
    windows must start after it (the paper likewise excludes Hubs'
    initial data downloading from its figures).
    """
    return 1.6 * profile.control.join_download_mb


def _nearest_site_name(location: Location) -> str:
    from ..net.geo import nearest_site

    return nearest_site(location, BACKBONE_SITES).name


def vantage_locations() -> dict:
    """The paper's probing vantage points (Sec. 4.2)."""
    return {
        "northern-us": NORTH_US,
        "eastern-us": EAST_US,
        "middle-east": MIDDLE_EAST,
    }
