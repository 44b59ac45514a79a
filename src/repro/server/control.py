"""Control-plane HTTPS service (menus, downloads, reports, clock sync).

Every platform's control channel is HTTPS (Sec. 4.1). The service
answers welcome-page menu requests, streams virtual-background
downloads in chunks, acknowledges the periodic client reports whose
spikes the paper observed (every ~10 s on AltspaceVR and Worlds), and
serves Worlds' game clock synchronization (Sec. 8.1).

For Mozilla Hubs the same HTTPS server also relays avatar state between
room members (``relay_avatars=True``): the paper found Hubs' avatar
data rides HTTPS while only voice uses WebRTC.
"""

from __future__ import annotations

import typing

from ..net.http import HttpsServer
from ..net.node import Host
from .forwarding import _pose_from_update
from .rooms import MemberBinding, RoomRegistry

CLOCK_SYNC_RESPONSE_BYTES = 220
REPORT_ACK_BYTES = 48
#: Served chunk size while streaming the virtual background.
DOWNLOAD_CHUNK_BYTES = 512 * 1024


class ControlService:
    """One control-plane server instance."""

    def __init__(
        self,
        sim,
        host: Host,
        rooms: typing.Optional[RoomRegistry] = None,
        relay_avatars: bool = False,
        processing_delay: typing.Optional[typing.Callable[[], float]] = None,
        port: int = 443,
    ) -> None:
        self.sim = sim
        self.host = host
        self.rooms = rooms
        self.relay_avatars = relay_avatars
        self.port = port
        self.https = HttpsServer(
            host,
            port,
            responder=self._respond,
            processing_delay=processing_delay,
            on_push=self._on_push,
        )
        #: user_id -> HTTPS channel, for avatar relay pushes.
        self.bindings: dict[str, object] = {}
        self.report_count = 0
        self.clock_sync_count = 0
        self.relayed_updates = 0
        self.unobserved_relayed_bytes = 0
        self._avatar_processing: typing.Callable[[int], float] = lambda n: 0.0

    def set_avatar_processing(self, fn: typing.Callable[[int], float]) -> None:
        """Per-update relay processing delay as a function of room size."""
        self._avatar_processing = fn

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def _respond(self, name: str, request_bytes: int, response_hint: int) -> int:
        if name.startswith("download:"):
            requested = int(name.split(":", 1)[1])
            return min(requested, DOWNLOAD_CHUNK_BYTES)
        if name == "report":
            self.report_count += 1
            return REPORT_ACK_BYTES
        if name == "clock-sync":
            self.clock_sync_count += 1
            return CLOCK_SYNC_RESPONSE_BYTES
        if name.startswith("welcome"):
            return response_hint
        return response_hint

    # ------------------------------------------------------------------
    # Avatar relay over HTTPS (Hubs)
    # ------------------------------------------------------------------
    def _on_push(self, channel, name: str, size: int, meta, enqueued_at) -> None:
        if name == "join" and meta is not None:
            room_id, user_id = meta
            self.bindings[user_id] = channel
            return
        if name == "avatar" and self.relay_avatars and meta is not None:
            room_id, user_id, update = meta
            self.relay_update(room_id, user_id, size, update)
            return
        if name == "session" and meta is not None:
            room_id, user_id, down_bytes = meta
            channel.push("session-ack", down_bytes)

    def relay_update(self, room_id: str, user_id: str, size: int, update) -> None:
        """Forward an avatar push to every other room member's channel."""
        if self.rooms is None:
            return
        room = self.rooms.room(room_id)
        sender = room.members.get(user_id)
        if sender is not None and update is not None and update.position is not None:
            sender.pose = _pose_from_update(update)
            sender.pose_updated_at = self.sim.now
        room_size = len(room)
        bindings = self.bindings
        schedule = self.sim._schedule_callback
        for member in room.others(user_id):
            member.forwarded_bytes += size
            if not member.observed:
                self.unobserved_relayed_bytes += size
                continue
            target = bindings.get(member.user_id)
            if target is None or not target.ready:
                continue
            self.relayed_updates += 1
            delay = self._avatar_processing(room_size)
            schedule(delay, target.push, ("avatar-fwd", size, update))

    def close(self) -> None:
        self.https.close()
