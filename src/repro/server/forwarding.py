"""The avatar-forwarding data server — the paper's root-cause finding.

Sec. 5.1 and Sec. 6 conclude that platform servers "directly forward
avatar data among users without further processing", which is exactly
what this server does: every avatar update received from one member is
relayed to every other member of the room after a processing delay.
That design is the mechanism behind every scalability result in the
paper (downlink linear in user count, uplink flat).

Two platform-specific refinements hang off subclass hooks:

* ``forward_fraction`` < 1 models Worlds' servers keeping part of each
  upload (status reports) and/or compressing, which is why its downlink
  is visibly lower than its uplink (Sec. 5.1).
* :class:`~repro.server.viewport_adaptive.ViewportAdaptiveServer`
  overrides ``should_forward`` to implement AltspaceVR's optimization.
"""

from __future__ import annotations

import typing

from ..avatar.codec import AvatarUpdate
from ..avatar.pose import Pose, Vec3
from ..obs.context import obs_of
from ..net.address import Endpoint
from ..net.node import Host
from ..net.udp import UdpSocket
from .rooms import MemberBinding, Room, RoomRegistry

#: Canonical platform data-channel UDP port.
DATA_PORT = 7777
#: Extra latency when relaying across server instances (intra-provider).
INTER_INSTANCE_DELAY_S = 0.001


def forwarded_size(payload_bytes: int, forward_fraction: float) -> int:
    """Bytes the server relays per ingested update (never below 1).

    Shared by the packet server below and the fluid rate model
    (:mod:`repro.scale.aggregate`), so both layers agree byte-for-byte
    on what a forwarding server emits per update.
    """
    return max(1, int(payload_bytes * forward_fraction))


class AvatarDataServer:
    """One physical data-channel server instance (UDP transport)."""

    def __init__(
        self,
        sim,
        host: Host,
        rooms: RoomRegistry,
        processing_delay: typing.Callable[[int], float],
        forward_fraction: float = 1.0,
        port: int = DATA_PORT,
    ) -> None:
        """``processing_delay(room_size)`` returns seconds of server work
        per forwarded update (grows with room size: queuing, Sec. 7)."""
        if not 0.0 < forward_fraction <= 1.0:
            raise ValueError(
                f"forward_fraction must be in (0, 1], got {forward_fraction}"
            )
        self.sim = sim
        self.host = host
        self.rooms = rooms
        self.processing_delay = processing_delay
        self.forward_fraction = forward_fraction
        self.port = port
        self.socket = UdpSocket(host, port, on_datagram=self._on_datagram)
        self.endpoint = Endpoint(host.ip, port)
        self.received_updates = 0
        self.forwarded_updates = 0
        self.unobserved_forwarded_bytes = 0
        self._obs = obs_of(sim)
        if self._obs.enabled:
            registry = self._obs.registry
            server = host.name
            self._rx_counter = registry.counter(
                "server.updates_received", server=server
            )
            self._fwd_counter = registry.counter(
                "server.updates_forwarded", server=server
            )
            self._suppressed_counter = registry.counter(
                "server.updates_suppressed", server=server
            )
            self._fanout_hist = registry.histogram(
                "server.fanout",
                buckets=(0, 1, 2, 5, 10, 20, 50, 100),
                server=server,
            )

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _on_datagram(self, src: Endpoint, payload_bytes: int, payload) -> None:
        if not (isinstance(payload, tuple) and payload):
            return
        kind = payload[0]
        if kind == "avatar":
            _, room_id, user_id, update = payload
            self.ingest_update(room_id, user_id, payload_bytes, update)
        elif kind == "session":
            _, room_id, user_id, down_bytes = payload
            self._echo_session(room_id, user_id, down_bytes, src)
        elif kind == "voice":
            _, room_id, user_id = payload
            self._forward_voice(room_id, user_id, payload_bytes)

    def ingest_update(
        self,
        room_id: str,
        user_id: str,
        payload_bytes: int,
        update: AvatarUpdate,
    ) -> None:
        """Process one avatar update (from the network or injected)."""
        self.received_updates += 1
        room = self.rooms.room(room_id)
        sender = room.members.get(user_id)
        if sender is not None and update is not None:
            sender.pose_updated_at = self.sim.now
            if update.position is not None:
                sender.pose = _pose_from_update(update)
        forwarded_bytes = forwarded_size(payload_bytes, self.forward_fraction)
        observing = self._obs.enabled
        fanout = 0
        if observing:
            self._rx_counter.inc()
        # Fan-out is the hottest loop on the server: hoist the invariants
        # and schedule handle-less (forwards are never cancelled).  The
        # per-recipient processing_delay call stays inside the loop — it
        # draws from the server's RNG stream once per recipient, and that
        # draw order is part of the reproducible trace.
        room_size = len(room)
        processing_delay = self.processing_delay
        schedule = self.sim._schedule_callback
        for member in room.others(user_id):
            if not self.should_forward(room, sender, member, update):
                member.suppressed_bytes += forwarded_bytes
                if observing:
                    self._suppressed_counter.inc()
                continue
            member.forwarded_bytes += forwarded_bytes
            self.forwarded_updates += 1
            fanout += 1
            if observing:
                self._fwd_counter.inc()
            if not member.observed:
                # Lightweight peers: account the bytes, skip the packets.
                self.unobserved_forwarded_bytes += forwarded_bytes
                continue
            delay = processing_delay(room_size)
            if member.server is not self:
                delay += INTER_INSTANCE_DELAY_S
            schedule(
                delay,
                member.server._send_forward,
                (member, forwarded_bytes, update),
            )
        if observing:
            self._fanout_hist.observe(fanout)
        if self._obs.tracer.enabled:
            self._obs.tracer.emit(
                "hop",
                hop="server-forward",
                where=self.host.name,
                room=room_id,
                user=user_id,
                fanout=fanout,
                size=forwarded_bytes,
            )

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def should_forward(
        self,
        room: Room,
        sender: typing.Optional[MemberBinding],
        recipient: MemberBinding,
        update: typing.Optional[AvatarUpdate],
    ) -> bool:
        """Plain forwarding servers relay everything (the root cause)."""
        return True

    # ------------------------------------------------------------------
    # Egress
    # ------------------------------------------------------------------
    def _send_forward(
        self, member: MemberBinding, forwarded_bytes: int, update
    ) -> None:
        self.socket.send_to(member.endpoint, forwarded_bytes, ("avatar-fwd", update))

    def _echo_session(
        self, room_id: str, user_id: str, down_bytes: int, src: Endpoint
    ) -> None:
        """Server-side session chatter sized per the platform's profile."""
        self.socket.send_to(src, down_bytes, ("session-ack",))

    def _forward_voice(self, room_id: str, user_id: str, payload_bytes: int) -> None:
        room = self.rooms.room(room_id)
        room_size = len(room)
        schedule = self.sim._schedule_callback
        for member in room.others(user_id):
            if not member.observed:
                continue
            delay = self.processing_delay(room_size)
            schedule(
                delay,
                member.server.socket.send_to,
                (member.endpoint, payload_bytes, ("voice-fwd", user_id)),
            )


def _pose_from_update(update: AvatarUpdate) -> Pose:
    return Pose(position=Vec3(*update.position), yaw_deg=update.yaw_deg)
