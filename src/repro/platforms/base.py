"""Platform deployment (server side) and client (device side).

:class:`PlatformDeployment` stands up one platform's infrastructure on a
:class:`~repro.net.topology.Network` according to its profile: control
HTTPS servers, avatar data servers (plain forwarding or
viewport-adaptive), and, for Hubs, a WebRTC voice SFU.

:class:`PlatformClient` models the headset app through the stages the
paper describes (Sec. 2.1): welcome page (control-channel activity,
background downloads) then a social event (avatar update loop, session
chatter, periodic reports, optional game traffic). All the paper's
client-observable behaviours live here: Worlds' TCP-over-UDP priority
gate, the missing-data recovery load that couples networking to
CPU/FPS (Sec. 8.1), and the action hooks used by the end-to-end latency
measurement (Sec. 7).

:class:`LightweightPeer` is a crowd participant whose uplink is
injected directly at the server (its own access network is irrelevant
to anything measurable at the observed user's AP); the server still
forwards full traffic to observed clients.  Every crowd is built from
peers (fixed rooms, churning public events, flash crowds), and their
update timers share the simulator's tick scheduler.
"""

from __future__ import annotations

import typing

from ..avatar.codec import AvatarCodec, AvatarUpdate
from ..avatar.expression import ExpressionState, GestureEvent
from ..avatar.motion import Motion, Wander
from ..avatar.personal_space import PersonalSpace
from ..avatar.pose import Pose, Vec3
from ..avatar.viewport import HEADSET_VIEWPORT
from ..device.headset import QUEST_2, HeadsetProfile
from ..device.metrics import MetricsSample
from ..device.rendering import RenderModel
from ..device.resources import ResourceModel
from ..net.address import Endpoint
from ..net.http import HttpsClient
from ..obs.context import obs_of
from ..net.node import Host
from ..net.udp import UdpSocket
from ..net.webrtc import WebRtcSession
from ..server.control import ControlService
from ..server.forwarding import DATA_PORT, AvatarDataServer
from ..server.placement import deploy_placement
from ..server.rooms import MemberBinding, RoomRegistry
from ..server.viewport_adaptive import ViewportAdaptiveServer
from ..server.voice import SFU_PORT, VoiceSfu
from ..simcore import Timeout
from .spec import (
    HTTPS_TRANSPORT,
    OVERHEAD_INTERVAL_S,
    TLS_FRAMING_BYTES,
    UDP_IP_HEADER_BYTES as UDP_IP_HEADERS,
    PlatformProfile,
    UDP_TRANSPORT,
)

#: Window for the missing-update (recovery) estimator.
RECOVERY_WINDOW_S = 1.0
#: Continuous TCP-gate time after which the Worlds UDP session dies
#: (Sec. 8.1: ~30 s of tiny exchanges, then a frozen screen).
UDP_DEATH_GATE_S = 30.0
#: Game clock is considered stale beyond this age (countdown board
#: stops updating in real time, Sec. 8.1). Reports arrive every ~10 s,
#: so anything past 12 s means the sync response is being held up.
CLOCK_STALE_S = 12.0


class FeatureUnavailableError(RuntimeError):
    """The platform does not offer the requested Table 1 feature."""


class PlatformDeployment:
    """One platform's server-side infrastructure."""

    def __init__(
        self,
        sim,
        network,
        profile: PlatformProfile,
        site_routers: dict,
        resolver=None,
        seed_name: str = "",
    ) -> None:
        self.sim = sim
        self.network = network
        self.profile = profile
        self.rooms = RoomRegistry(default_capacity=profile.data.room_capacity)
        self._rng = sim.rng(f"server:{profile.name}:{seed_name}")

        # Control plane ------------------------------------------------
        self.control_placement = deploy_placement(
            network, profile.control.placement, f"{profile.name}-ctrl", site_routers
        )
        relay = profile.data.transport == HTTPS_TRANSPORT
        self.control_services: dict[str, ControlService] = {}
        for host in self.control_placement.all_hosts:
            service = ControlService(
                sim,
                host,
                rooms=self.rooms,
                relay_avatars=relay,
                processing_delay=self._control_delay,
            )
            if relay:
                service.set_avatar_processing(self._data_processing_delay)
            self.control_services[host.name] = service

        # Data plane ---------------------------------------------------
        self.data_servers: dict[str, AvatarDataServer] = {}
        if profile.data.transport == UDP_TRANSPORT:
            self.data_placement = deploy_placement(
                network, profile.data.placement, f"{profile.name}-data", site_routers
            )
            server_cls: typing.Type[AvatarDataServer]
            kwargs: dict = {}
            if profile.data.viewport_adaptive:
                server_cls = ViewportAdaptiveServer
                kwargs["viewport_deg"] = profile.data.server_viewport_deg
                kwargs["prediction_horizon_s"] = (
                    profile.data.viewport_prediction_horizon_s
                )
            else:
                server_cls = AvatarDataServer
            for host in self.data_placement.all_hosts:
                self.data_servers[host.name] = server_cls(
                    sim,
                    host,
                    self.rooms,
                    processing_delay=self._data_processing_delay,
                    forward_fraction=profile.data.forward_fraction,
                    **kwargs,
                )
        else:
            # Hubs: avatar data rides the control HTTPS servers.
            self.data_placement = self.control_placement

        # Voice SFU (Hubs) ----------------------------------------------
        self.voice_sfus: dict[str, VoiceSfu] = {}
        self.voice_placement = None
        if profile.data.voice_placement is not None:
            self.voice_placement = deploy_placement(
                network,
                profile.data.voice_placement,
                f"{profile.name}-sfu",
                site_routers,
            )
            for host in self.voice_placement.all_hosts:
                self.voice_sfus[host.name] = VoiceSfu(sim, host, self.rooms)

        # Hostnames (Worlds' distinct control/data names, Sec. 4.1).
        if resolver is not None:
            if profile.control.placement.hostname:
                resolver.register(
                    profile.control.placement.hostname,
                    self.control_placement.all_hosts[0].ip,
                )
            if profile.data.placement.hostname and self.data_placement is not None:
                resolver.register(
                    profile.data.placement.hostname,
                    self.data_placement.all_hosts[0].ip,
                )

    # ------------------------------------------------------------------
    # Server-side delays
    # ------------------------------------------------------------------
    def _control_delay(self) -> float:
        return max(0.0005, self._rng.gauss(0.005, 0.001))

    def _data_processing_delay(self, room_size: int) -> float:
        """Per-update forwarding delay, growing with room size (Fig. 11)."""
        spec = self.profile.data
        base_ms = spec.server_processing.mean + self._rng.gauss(
            0.0, spec.server_processing.std
        )
        extra = max(0, room_size - 2)
        queue_ms = spec.queue_ms_linear * extra + spec.queue_ms_quad * extra * extra
        return max(0.0005, (base_ms + queue_ms) / 1000.0)

    # ------------------------------------------------------------------
    # Client-facing API
    # ------------------------------------------------------------------
    def control_endpoint_for(self, client_host: Host, user_index: int) -> Endpoint:
        ip = self.control_placement.advertised_ip(client_host, user_index)
        return Endpoint(ip, 443)

    def data_endpoint_for(self, client_host: Host, user_index: int) -> Endpoint:
        if self.profile.data.transport == HTTPS_TRANSPORT:
            return self.control_endpoint_for(client_host, user_index)
        ip = self.data_placement.advertised_ip(client_host, user_index)
        return Endpoint(ip, DATA_PORT)

    def data_server_for(self, client_host: Host, user_index: int):
        """The concrete server object handling this client's data."""
        host = self.data_placement.host_for(client_host, user_index)
        if self.profile.data.transport == HTTPS_TRANSPORT:
            return self.control_services[host.name]
        return self.data_servers[host.name]

    def voice_endpoint_for(self, client_host: Host, user_index: int) -> typing.Optional[Endpoint]:
        if self.voice_placement is None:
            return None
        ip = self.voice_placement.advertised_ip(client_host, user_index)
        return Endpoint(ip, SFU_PORT)

    def join_room(
        self,
        room_id: str,
        user_id: str,
        endpoint: typing.Optional[Endpoint],
        server,
        observed: bool = True,
        pose: typing.Optional[Pose] = None,
    ) -> MemberBinding:
        binding = MemberBinding(
            user_id=user_id,
            endpoint=endpoint,
            server=server,
            observed=observed,
            pose=pose,
            joined_at=self.sim.now,
        )
        return self.rooms.room(room_id).join(binding)

    def leave_room(self, room_id: str, user_id: str) -> None:
        self.rooms.room(room_id).leave(user_id)


class PlatformClient:
    """The headset app of one observed user."""

    def __init__(
        self,
        sim,
        deployment: PlatformDeployment,
        host: Host,
        user_id: str,
        user_index: int,
        device: HeadsetProfile = QUEST_2,
        motion: typing.Optional[Motion] = None,
        muted: bool = True,
    ) -> None:
        self.sim = sim
        self.deployment = deployment
        self.profile = deployment.profile
        self.host = host
        self.user_id = user_id
        self.user_index = user_index
        self.device = device
        self.muted = muted
        self._rng = sim.rng(f"client:{self.profile.name}:{user_id}")

        # Per-channel observability counters (payload bytes, the same
        # separation the paper's flow classification recovers at the AP).
        self._obs = obs_of(sim)
        if self._obs.enabled:
            registry = self._obs.registry

            def tx(channel: str):
                return registry.counter(
                    "platform.client.tx_bytes", user=user_id, channel=channel
                )

            def rx(channel: str):
                return registry.counter(
                    "platform.client.rx_bytes", user=user_id, channel=channel
                )

            self._tx_counters = {
                ch: tx(ch) for ch in ("avatar", "session", "voice", "game", "screen")
            }
            self._rx_counters = {ch: rx(ch) for ch in ("avatar", "session", "voice")}

            # QoE source signals (repro.qoe derives per-window scores by
            # differencing/reading these; all fn-gauges are pure reads
            # so snapshotting them cannot perturb the simulation).
            self._qoe_updates = registry.counter("qoe.updates_received", user=user_id)
            self._qoe_latency_sum = registry.counter(
                "qoe.update_latency_sum_s", user=user_id
            )
            registry.gauge(
                "qoe.active_remotes", user=user_id, fn=self.active_remote_count
            )
            registry.gauge(
                "qoe.update_staleness_s", user=user_id, fn=self._update_staleness_s
            )
            registry.gauge("qoe.phase", user=user_id, fn=self._qoe_phase_code)

        # Avatar state
        self.pose = Pose(position=Vec3(0.0, 0.0, 0.0))
        self.motion: Motion = motion or Wander()
        self.codec = AvatarCodec(self.profile.embodiment)
        self.expressions = ExpressionState()
        #: Table 1: every platform except Hubs keeps a personal bubble.
        self.personal_space: typing.Optional[PersonalSpace] = (
            PersonalSpace() if self.profile.features.personal_space else None
        )

        # Device models
        self.render = RenderModel(self.profile.render_cost, device)
        self.resources = ResourceModel(self.profile.resources, self._rng)
        self.battery_pct = 100.0
        self._battery_updated_at = sim.now

        # Stage / session state
        self.stage = "init"
        #: True while the per-join download runs (``stage`` stays
        #: "welcome" during it); MetaVRadar's world-switch phase.
        self.joining = False
        self.room_id: typing.Optional[str] = None
        self.in_game = False
        self.screen_share_kbps = 0.0
        self._screen_share_timer = None
        self.frozen = False
        self.udp_dead = False
        self.downloaded_bytes = 0
        self.last_clock_sync: typing.Optional[float] = None

        #: Mean-reverting activity level scaling avatar payloads: a
        #: user's movement intensity shows up in peers' downlink, the
        #: pattern match Fig. 3 relies on.
        self.activity = 1.0

        # Remote avatar registry: user_id -> state dict
        self.remote_avatars: dict[str, dict] = {}
        self._recovery_window: list = []  # (time, expected_seq_delta, got)
        self.recovery_load = 0.0
        self._gate_since: typing.Optional[float] = None
        self._last_tcp_progress = 0.0
        self._last_snd_una = 0

        # Latency-experiment hooks
        self.pending_actions: list = []  # (action_id, t0)
        self.sent_actions: dict[int, dict] = {}
        self.action_displays: dict[int, dict] = {}

        # Transports (created on start/join)
        self.control: typing.Optional[HttpsClient] = None
        #: Hubs-style WebSocket-over-TLS avatar channel: same server as
        #: control, but its own TCP connection (a distinct flow at the
        #: AP, which is how the paper can classify it separately).
        self.data_https: typing.Optional[HttpsClient] = None
        self.data_socket: typing.Optional[UdpSocket] = None
        self.data_endpoint: typing.Optional[Endpoint] = None
        self.data_server = None
        self.voice: typing.Optional[WebRtcSession] = None
        self._processes: list = []
        #: Periodic senders ride the shared tick scheduler (one kernel
        #: event per firing time across all users) instead of one
        #: generator process each.
        self._timers: list = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, join_at: float, room_id: str, leave_at: typing.Optional[float] = None) -> None:
        """Launch the app now; join ``room_id`` at ``join_at``."""
        self.room_id = room_id
        process = self.sim.spawn(
            self._lifecycle(join_at, leave_at), name=f"{self.user_id}-lifecycle"
        )
        self._processes.append(process)

    def _lifecycle(self, join_at: float, leave_at: typing.Optional[float]):
        control_endpoint = self.deployment.control_endpoint_for(
            self.host, self.user_index
        )
        self.control = HttpsClient(
            self.host,
            30_000 + self.user_index,
            control_endpoint,
            on_push=self._on_https_push,
        )
        self.control.open()
        if self.profile.data.transport == HTTPS_TRANSPORT:
            self.data_https = HttpsClient(
                self.host,
                21_000 + self.user_index,
                self.deployment.data_endpoint_for(self.host, self.user_index),
                on_push=self._on_https_push,
            )
            self.data_https.open()
        while not self.control.ready:
            yield Timeout(0.01)
        self.stage = "welcome"
        # Welcome page: menu interactions + background download tail.
        spec = self.profile.control
        while self.sim.now < join_at:
            wait = min(
                spec.welcome_request_interval_s * self._rng.uniform(0.7, 1.3),
                max(0.01, join_at - self.sim.now),
            )
            yield Timeout(wait)
            if self.sim.now >= join_at:
                break
            response = int(spec.welcome_response_bytes * self._rng.uniform(0.5, 1.5))
            self.control.request("welcome", spec.welcome_request_bytes, response)
            if spec.welcome_download_chunk_bytes > 0:
                chunk = spec.welcome_download_chunk_bytes
                self.control.request(f"download:{chunk}", 400, chunk)
                self.downloaded_bytes += chunk
        yield from self._join_event()
        if leave_at is not None:
            yield Timeout(max(0.0, leave_at - self.sim.now))
            self.leave()

    def _join_event(self):
        self.joining = True
        spec = self.profile.control
        # Per-join download (Hubs ~20 MB, Worlds ~5 MB; Sec. 5.2).
        remaining = int(spec.join_download_mb * 1_000_000)
        while remaining > 0:
            chunk = min(remaining, 512 * 1024)
            done = {}
            self.control.request(
                f"download:{chunk}", 400, chunk, on_response=lambda n, s: done.update(ok=True)
            )
            self.downloaded_bytes += chunk
            remaining -= chunk
            for _ in range(400):
                if done:
                    break
                yield Timeout(0.025)
        if self.data_https is not None:
            while not self.data_https.ready:
                yield Timeout(0.05)
        self._open_data_channel()
        self.stage = "event"
        self.joining = False
        self._start_avatar_timer()
        self._start_overhead_timer()
        if self.profile.control.report_interval_s is not None:
            self._start_report_timer()
        if not self.muted:
            self._start_voice_timer()

    def _add_timer(self, interval: float, callback, first_delay=None) -> None:
        self._timers.append(
            self.sim.ticks.call_every(interval, callback, first_delay=first_delay)
        )

    def _open_data_channel(self) -> None:
        self.data_endpoint = self.deployment.data_endpoint_for(
            self.host, self.user_index
        )
        self.data_server = self.deployment.data_server_for(self.host, self.user_index)
        if self.profile.data.transport == UDP_TRANSPORT:
            self.data_socket = UdpSocket(
                self.host, 20_000 + self.user_index, on_datagram=self._on_udp
            )
            client_endpoint = Endpoint(self.host.ip, self.data_socket.port)
        else:
            # Hubs: avatar data over the dedicated HTTPS (WebSocket-
            # style) channel to the same server.
            self.data_https.channel.push("join", 96, (self.room_id, self.user_id))
            client_endpoint = Endpoint(self.host.ip, self.data_https.tcp.local.port)
        self.binding = self.deployment.join_room(
            self.room_id,
            self.user_id,
            client_endpoint,
            self.data_server,
            observed=True,
            pose=self.pose.copy(),
        )
        voice_endpoint = self.deployment.voice_endpoint_for(self.host, self.user_index)
        if voice_endpoint is not None:
            self.voice = WebRtcSession(
                self.host,
                25_000 + self.user_index,
                voice_endpoint,
                on_media=self._on_voice_media,
            )
            self.voice.socket.send_to(
                voice_endpoint, 64, ("voice-join", self.room_id, self.user_id)
            )
            self.voice.start()

    def leave(self) -> None:
        """Leave the event and stop all loops."""
        if self.room_id is not None and self.stage == "event":
            self.deployment.leave_room(self.room_id, self.user_id)
        self.stage = "left"
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        self._screen_share_timer = None
        for process in self._processes:
            if process.alive:
                process.kill()
        self._processes.clear()

    # ------------------------------------------------------------------
    # Data-plane loops
    # ------------------------------------------------------------------
    def _start_avatar_timer(self) -> None:
        spec = self.profile.data
        self._avatar_interval = 1.0 / spec.update_rate_hz
        self._game_bytes_per_tick = 0
        if spec.game_extra_up_kbps > 0:
            self._game_bytes_per_tick = int(
                spec.game_extra_up_kbps * 1000.0 / 8.0 * self._avatar_interval
            ) - UDP_IP_HEADERS
        self._add_timer(self._avatar_interval, self._avatar_tick)

    def _avatar_tick(self) -> None:
        if self.frozen:
            return
        now = self.sim.now
        interval = self._avatar_interval
        self.motion.step(self.pose, interval, now, self._rng)
        if self.personal_space is not None:
            self.personal_space.enforce(
                self.pose,
                [
                    state["position"]
                    for state in self.remote_avatars.values()
                    if state.get("position") is not None
                    and now - state.get("last_time", -10.0) < 3.0
                ],
            )
        self.activity += 0.08 * (1.0 - self.activity) + self._rng.gauss(0.0, 0.07)
        self.activity = min(1.45, max(0.55, self.activity))
        if self._udp_gated():
            return
        # Recovery pressure makes the uplink stutter (Sec. 8.1).
        if self.recovery_load > 0.3 and self._rng.random() < self.recovery_load * 0.6:
            return
        action_id = None
        if self.pending_actions:
            action_id, t0 = self.pending_actions.pop(0)
            self.sent_actions[action_id] = {"t0": t0, "sent_at": now}
        payload_bytes, update = self.codec.encode(
            self.user_id,
            self.pose,
            now,
            expressions=self.expressions.active(now),
            action_id=action_id,
            activity=self.activity,
        )
        self._send_avatar(payload_bytes, update)
        if self.in_game and self._game_bytes_per_tick > 0:
            self._send_game(max(64, self._game_bytes_per_tick))

    def _count_tx(self, channel: str, payload_bytes: int) -> None:
        if self._obs.enabled:
            self._tx_counters[channel].inc(payload_bytes)

    def _count_rx(self, channel: str, payload_bytes: int) -> None:
        if self._obs.enabled:
            self._rx_counters[channel].inc(payload_bytes)

    def _send_avatar(self, payload_bytes: int, update: AvatarUpdate) -> None:
        self._count_tx("avatar", payload_bytes)
        if self.profile.data.transport == UDP_TRANSPORT:
            self.data_socket.send_to(
                self.data_endpoint,
                payload_bytes,
                ("avatar", self.room_id, self.user_id, update),
            )
        else:
            self.data_https.channel.push(
                "avatar", payload_bytes, (self.room_id, self.user_id, update)
            )

    def _send_game(self, payload_bytes: int) -> None:
        """Game action traffic is forwarded like avatar data."""
        if self.profile.data.transport != UDP_TRANSPORT:
            return
        self._count_tx("game", payload_bytes)
        self.data_socket.send_to(
            self.data_endpoint,
            payload_bytes,
            ("avatar", self.room_id, self.user_id, None),
        )

    def _start_overhead_timer(self) -> None:
        up_payload, down_payload = self.profile.data.session_payload_bytes()
        self._session_payloads = (up_payload, down_payload)
        self._keepalive_countdown = 0
        self._add_timer(OVERHEAD_INTERVAL_S, self._overhead_tick)

    def _overhead_tick(self) -> None:
        if self.frozen or self.udp_dead:
            return
        up_payload, down_payload = self._session_payloads
        self._update_recovery_load()
        if self._udp_gated():
            # Only tiny keepalives while TCP has priority — the
            # "tiny data exchanges over UDP" of Sec. 8.1.
            self._keepalive_countdown -= 1
            if self._keepalive_countdown <= 0 and self.data_socket is not None:
                self._keepalive_countdown = 10
                self._count_tx("session", 16)
                self.data_socket.send_to(
                    self.data_endpoint,
                    16,
                    ("session", self.room_id, self.user_id, 16),
                )
            return
        self._count_tx("session", up_payload)
        if self.profile.data.transport == UDP_TRANSPORT:
            self.data_socket.send_to(
                self.data_endpoint,
                up_payload,
                ("session", self.room_id, self.user_id, down_payload),
            )
        else:
            self.data_https.channel.push(
                "session", up_payload, (self.room_id, self.user_id, down_payload)
            )

    def _start_report_timer(self) -> None:
        # The first interval draw must happen in a +0.0 kernel event —
        # exactly where the old generator's Process.start() placed it —
        # so same-timestamp sampler draws from the shared per-user
        # stream keep their position in the draw sequence.
        self.sim._schedule_callback(0.0, self._register_report_timer)

    def _register_report_timer(self) -> None:
        if self.stage != "event":
            return  # left the room before the deferred registration ran
        spec = self.profile.control
        first = spec.report_interval_s * self._rng.uniform(0.95, 1.05)
        self._add_timer(spec.report_interval_s, self._report_tick, first_delay=first)

    def _report_tick(self) -> float:
        spec = self.profile.control
        name = "clock-sync" if spec.clock_sync else "report"
        self.control.request(
            name,
            spec.report_up_bytes,
            spec.report_down_bytes,
            on_response=self._on_report_response,
        )
        # Jittered cadence: the next delay is drawn per firing, exactly
        # as the generator-based loop drew its next Timeout.
        return spec.report_interval_s * self._rng.uniform(0.95, 1.05)

    def _on_report_response(self, name: str, size: int) -> None:
        if name == "clock-sync":
            self.last_clock_sync = self.sim.now

    def _start_voice_timer(self) -> None:
        spec = self.profile.data
        frame_interval = 0.02  # 50 packets/s Opus
        # voice_kbps is the on-the-wire budget; shave per-packet headers
        # (RTP rides 12 B inside UDP/IP's 28 B).
        wire_per_frame = spec.voice_kbps * 1000.0 / 8.0 * frame_interval
        self._voice_payloads = (
            max(16, int(wire_per_frame) - UDP_IP_HEADERS),  # raw UDP
            max(16, int(wire_per_frame) - UDP_IP_HEADERS - 12),  # RTP
        )
        self._add_timer(frame_interval, self._voice_tick)

    def _voice_tick(self) -> None:
        if self.frozen:
            return
        udp_payload, rtp_payload = self._voice_payloads
        if self.voice is not None:
            self._count_tx("voice", rtp_payload)
            self.voice.send_media(rtp_payload, (self.room_id, self.user_id))
        elif self.profile.data.transport == UDP_TRANSPORT:
            self._count_tx("voice", udp_payload)
            self.data_socket.send_to(
                self.data_endpoint,
                udp_payload,
                ("voice", self.room_id, self.user_id),
            )

    # ------------------------------------------------------------------
    # Worlds' TCP-over-UDP priority (Sec. 8.1)
    # ------------------------------------------------------------------
    def _udp_gated(self) -> bool:
        if not self.profile.data.tcp_priority_coupling:
            return False
        if self.udp_dead:
            return True
        tcp = self.control.tcp if self.control is not None else None
        if tcp is None:
            return False
        # Track whether TCP is making *any* delivery progress: delayed
        # TCP opens gaps in UDP, but only a fully dead TCP (the 100%
        # loss stage) kills the UDP session for good.
        if tcp.snd_una != self._last_snd_una or tcp.all_acked:
            self._last_snd_una = tcp.snd_una
            self._last_tcp_progress = self.sim.now
        if not tcp.all_acked:
            if self._gate_since is None:
                self._gate_since = self.sim.now
            if self.sim.now - self._last_tcp_progress > UDP_DEATH_GATE_S:
                # The UDP session times out and never recovers; the
                # screen freezes (Sec. 8.1's 100%-loss experiment).
                self.udp_dead = True
                self.frozen = True
            return True
        self._gate_since = None
        return False

    @property
    def clock_sync_stale(self) -> bool:
        """Whether the in-game countdown board has stopped updating."""
        if self.last_clock_sync is None:
            return True
        return self.sim.now - self.last_clock_sync > CLOCK_STALE_S

    # ------------------------------------------------------------------
    # Reception
    # ------------------------------------------------------------------
    def _on_udp(self, src: Endpoint, payload_bytes: int, payload) -> None:
        if not (isinstance(payload, tuple) and payload):
            return
        kind = payload[0]
        if kind == "avatar-fwd":
            self._count_rx("avatar", payload_bytes)
            self._on_avatar_forward(payload[1], payload_bytes + UDP_IP_HEADERS)
        elif kind == "session-ack":
            self._count_rx("session", payload_bytes)
        elif kind == "voice-fwd":
            self._count_rx("voice", payload_bytes)

    def _on_https_push(self, name: str, size: int, meta, enqueued_at) -> None:
        if name == "avatar-fwd":
            self._count_rx("avatar", size)
            self._on_avatar_forward(meta, size)

    def _on_voice_media(self, src, payload_bytes, sent_at, meta) -> None:
        pass  # audio playout is not measured by any experiment

    def _on_avatar_forward(self, update: typing.Optional[AvatarUpdate], wire_size: int) -> None:
        if self.frozen:
            return
        now = self.sim.now
        if update is None:
            return  # game traffic burst, no avatar state
        state = self.remote_avatars.get(update.user_id)
        if state is None:
            state = {"last_seq": 0, "received": 0, "window_received": 0, "position": None}
            self.remote_avatars[update.user_id] = state
        state["last_seq"] = max(state["last_seq"], update.sequence)
        state["received"] += 1
        state["window_received"] += 1
        state["position"] = Vec3(*update.position)
        state["last_time"] = now
        if self._obs.enabled:
            self._qoe_updates.inc()
            self._qoe_latency_sum.inc(now - update.sent_at)
        if update.carries_action:
            self._display_action(update, now)

    def _display_action(self, update: AvatarUpdate, arrived_at: float) -> None:
        receiver_delay = self.profile.latency.receiver_base.sample_s(self._rng)
        render_delay = self.render.frame_time_ms(self.rendered_avatars()) / 1000.0
        vsync_wait = self._rng.uniform(0.0, self.device.frame_interval_s)
        display_at = arrived_at + receiver_delay + render_delay + vsync_wait
        self.action_displays[update.action_id] = {
            "arrived_at": arrived_at,
            "display_at": display_at,
            "from_user": update.user_id,
        }

    # ------------------------------------------------------------------
    # Recovery-load estimator (missing incoming updates)
    # ------------------------------------------------------------------
    def _update_recovery_load(self) -> None:
        if self.profile.data.viewport_adaptive:
            # Missing updates are expected under viewport filtering;
            # AltspaceVR is never part of the disruption experiments.
            self.recovery_load = 0.0
            return
        self._recovery_window.append(self.sim.now)
        if self.sim.now - self._recovery_window[0] < RECOVERY_WINDOW_S:
            return
        self._recovery_window = [self.sim.now]
        active_remotes = [
            state
            for state in self.remote_avatars.values()
            if self.sim.now - state.get("last_time", -10.0) < 5.0
        ]
        if not active_remotes:
            self.recovery_load = 0.0
            return
        expected = self.profile.data.update_rate_hz * RECOVERY_WINDOW_S
        ratios = []
        for state in active_remotes:
            got = state["window_received"]
            state["window_received"] = 0
            ratios.append(min(1.0, got / expected))
        mean_ratio = sum(ratios) / len(ratios)
        deficit = max(0.0, 1.0 - mean_ratio)
        # Smooth to avoid flapping on one noisy window.
        self.recovery_load = 0.6 * self.recovery_load + 0.4 * deficit

    # ------------------------------------------------------------------
    # Latency-experiment API (Sec. 7)
    # ------------------------------------------------------------------
    def perform_action(self, action_id: int, at: float) -> None:
        """Schedule the finger-touch action at simulated time ``at``."""
        self.sim.schedule_at(at, self._start_action, action_id, at)

    def _start_action(self, action_id: int, t0: float) -> None:
        sender_delay = self.profile.latency.sender.sample_s(self._rng)
        self.sim.schedule(sender_delay, self._flush_action, action_id, t0)

    def _flush_action(self, action_id: int, t0: float) -> None:
        if self.stage != "event" or self._udp_gated() or self.frozen:
            self.pending_actions.append((action_id, t0))
            return
        self.sent_actions[action_id] = {"t0": t0, "sent_at": self.sim.now}
        payload_bytes, update = self.codec.encode(
            self.user_id,
            self.pose,
            self.sim.now,
            expressions=self.expressions.active(self.sim.now),
            action_id=action_id,
        )
        self._send_avatar(payload_bytes, update)

    def perform_gesture(self, gesture: str, at: float) -> None:
        """Schedule a hand gesture (drives expressions on Worlds)."""
        self.sim.schedule_at(
            at, lambda: self.expressions.apply_gesture(GestureEvent(gesture, at))
        )

    # ------------------------------------------------------------------
    # Screen sharing (Table 1: AltspaceVR and Hubs only)
    # ------------------------------------------------------------------
    def start_screen_share(self, bitrate_kbps: float = 1500.0) -> None:
        """Present a screen to the room as a forwarded video stream."""
        if not self.profile.features.share_screen:
            raise FeatureUnavailableError(
                f"{self.profile.display_name} has no screen sharing (Table 1)"
            )
        if self.stage != "event":
            raise RuntimeError("join an event before sharing a screen")
        if self._screen_share_timer is not None:
            return
        self.screen_share_kbps = bitrate_kbps
        self._screen_share_timer = self.sim.ticks.call_every(
            0.1, self._screen_share_tick  # 10 video frames/s
        )
        self._timers.append(self._screen_share_timer)

    def stop_screen_share(self) -> None:
        if self._screen_share_timer is not None:
            self._screen_share_timer.cancel()
            self._screen_share_timer = None
        self.screen_share_kbps = 0.0

    def _screen_share_tick(self) -> None:
        frame_interval = 0.1
        if self.frozen or self.screen_share_kbps <= 0:
            return
        frame_bytes = max(
            256,
            int(self.screen_share_kbps * 1000.0 / 8.0 * frame_interval)
            - UDP_IP_HEADERS,
        )
        # Screen frames are room content and forwarded like avatar
        # data — one more linearly-scaling stream per viewer.
        self._count_tx("screen", frame_bytes)
        if self.profile.data.transport == UDP_TRANSPORT:
            self.data_socket.send_to(
                self.data_endpoint,
                frame_bytes,
                ("avatar", self.room_id, self.user_id, None),
            )
        else:
            self.data_https.channel.push(
                "avatar", frame_bytes, (self.room_id, self.user_id, None)
            )

    # ------------------------------------------------------------------
    # Device state
    # ------------------------------------------------------------------
    def active_remote_count(self) -> int:
        """Remote users whose data arrived recently (CPU-relevant)."""
        return sum(
            1
            for state in self.remote_avatars.values()
            if self.sim.now - state.get("last_time", -10.0) < 3.0
        )

    def _update_staleness_s(self) -> float:
        """Seconds since the newest remote avatar update (0 when fresh
        or when no remote has ever been heard from)."""
        newest = None
        for state in self.remote_avatars.values():
            last = state.get("last_time")
            if last is not None and (newest is None or last > newest):
                newest = last
        if newest is None:
            return 0.0
        return max(0.0, self.sim.now - newest)

    def qoe_phase(self) -> str:
        """MetaVRadar-style lifecycle phase of this user right now."""
        from ..qoe.model import classify_phase

        return classify_phase(self.stage, self.joining, self.active_remote_count())

    def _qoe_phase_code(self) -> float:
        from ..qoe.model import phase_code

        return float(phase_code(self.qoe_phase()))

    def rendered_avatars(self) -> int:
        """Remote avatars inside the headset viewport (GPU/FPS-relevant)."""
        count = 0
        for state in self.remote_avatars.values():
            if self.sim.now - state.get("last_time", -10.0) >= 3.0:
                continue
            position = state.get("position")
            if position is None:
                continue
            if HEADSET_VIEWPORT.contains(self.pose, position):
                count += 1
        return count

    def device_snapshot(self) -> MetricsSample:
        active = self.active_remote_count()
        rendered = self.rendered_avatars()
        # Population-driven render cost is already in the per-avatar
        # frame-time model; only recovery pressure (Sec. 8.1) starves
        # the render thread on top of it.
        overload = self.resources.cpu_overload_factor(0, self.recovery_load)
        self._drain_battery(active)
        return MetricsSample(
            time=self.sim.now,
            fps=0.0 if self.frozen else self.render.fps(rendered, overload),
            stale_per_s=(
                self.device.refresh_hz
                if self.frozen
                else self.render.stale_frames_per_s(rendered, overload)
            ),
            cpu_pct=self.resources.cpu_pct(active, self.recovery_load),
            gpu_pct=self.resources.gpu_pct(rendered, self.recovery_load),
            memory_mb=self.resources.memory_mb(active),
            visible_avatars=rendered,
            battery_pct=self.battery_pct,
        )

    def _drain_battery(self, other_avatars: int) -> None:
        if self.device.battery_wh == float("inf"):
            return  # tethered/PC clients are mains-powered
        elapsed = self.sim.now - self._battery_updated_at
        self._battery_updated_at = self.sim.now
        drain = self.resources.battery_drain_pct(elapsed, other_avatars)
        self.battery_pct = max(0.0, self.battery_pct - drain)


class LightweightPeer:
    """A crowd participant injected at the server (see module docstring)."""

    def __init__(
        self,
        sim,
        deployment: PlatformDeployment,
        user_id: str,
        room_id: str,
        position: Vec3,
        motion: typing.Optional[Motion] = None,
    ) -> None:
        self.sim = sim
        self.deployment = deployment
        self.profile = deployment.profile
        self.user_id = user_id
        self.room_id = room_id
        # Peers mingle near the room centre so a station facing the
        # centre keeps them all in view (the Fig. 6/7 crowd layout).
        self.pose = Pose(position=position)
        self.motion = motion or Wander(room_radius=1.0, speed=0.5)
        self.codec = AvatarCodec(self.profile.embodiment)
        self._rng = sim.rng(f"peer:{self.profile.name}:{user_id}")
        self._timer = None
        self.server = None

    def start(self, join_at: float) -> None:
        self.sim.schedule_at(join_at, self.join)

    def join(self) -> None:
        """Enter the room now and start the update timer, phased at the
        join.  A full room raises
        :class:`~repro.server.rooms.RoomFullError` before any timer
        starts."""
        # Bind to the first data server instance; unobserved members
        # never receive real packets, so instance choice is cosmetic.
        if self.profile.data.transport == UDP_TRANSPORT:
            self.server = next(iter(self.deployment.data_servers.values()))
        else:
            self.server = next(iter(self.deployment.control_services.values()))
        self.deployment.join_room(
            self.room_id,
            self.user_id,
            endpoint=None,
            server=self.server,
            observed=False,
            pose=self.pose.copy(),
        )
        self._interval = 1.0 / self.profile.data.update_rate_hz
        self._timer = self.sim.ticks.call_every(self._interval, self._update_tick)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self.deployment.leave_room(self.room_id, self.user_id)

    def _update_tick(self) -> None:
        now = self.sim.now
        self.motion.step(self.pose, self._interval, now, self._rng)
        payload_bytes, update = self.codec.encode(self.user_id, self.pose, now)
        if self.profile.data.transport == UDP_TRANSPORT:
            self.server.ingest_update(self.room_id, self.user_id, payload_bytes, update)
        else:
            # Hubs relay path: size as the TLS-framed wire message.
            self.server.relay_update(
                self.room_id,
                self.user_id,
                payload_bytes + TLS_FRAMING_BYTES,
                update,
            )
