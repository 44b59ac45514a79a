"""Remote-rendering server: the paper's proposed scalability fix.

Sec. 6.3 argues that rendering the scene server-side and streaming an
encoded video makes client downlink and compute depend on *video
quality* rather than on the number of users. This module implements
that alternative so the ablation benchmark can compare it against the
forwarding architecture: one encoded stream per subscribed viewer at a
bitrate set by resolution/FPS, regardless of room population.
"""

from __future__ import annotations

import dataclasses

from ..net.address import Endpoint
from ..net.node import Host
from ..net.udp import UdpSocket
from .rooms import RoomRegistry


@dataclasses.dataclass(frozen=True)
class VideoQuality:
    """Encoded stream parameters for remote rendering."""

    width: int
    height: int
    fps: float
    bits_per_pixel: float = 0.08  # H.264-ish for synthetic VR content

    @property
    def bitrate_bps(self) -> float:
        return self.width * self.height * self.fps * self.bits_per_pixel

    @property
    def mbps(self) -> float:
        return self.bitrate_bps / 1e6


#: The >25 Mbps cloud-gaming-grade quality cited in Sec. 2.2.
CLOUD_GAMING_QUALITY = VideoQuality(1832, 1920, 72.0)
#: A medium 1080p60 stream (>10 Mbps per Sec. 5.1's comparison).
HD_QUALITY = VideoQuality(1920, 1080, 60.0)


class RemoteRenderingServer:
    """Streams rendered frames to each subscribed viewer."""

    def __init__(
        self,
        sim,
        host: Host,
        rooms: RoomRegistry,
        quality: VideoQuality = HD_QUALITY,
        port: int = 8888,
    ) -> None:
        self.sim = sim
        self.host = host
        self.rooms = rooms
        self.quality = quality
        self.port = port
        self.socket = UdpSocket(host, port, on_datagram=self._on_datagram)
        self.endpoint = Endpoint(host.ip, port)
        self._subscribers: dict[str, dict] = {}
        self.frames_sent = 0

    # ------------------------------------------------------------------
    # Subscription management
    # ------------------------------------------------------------------
    def subscribe(self, user_id: str, endpoint: Endpoint, room_id: str) -> None:
        """Start streaming rendered frames to ``endpoint``."""
        if user_id in self._subscribers:
            return
        self._subscribers[user_id] = {"endpoint": endpoint, "room_id": room_id}
        self.sim.schedule(1.0 / self.quality.fps, self._send_frame, user_id)

    def _on_datagram(self, src: Endpoint, payload_bytes: int, payload) -> None:
        if isinstance(payload, tuple) and payload and payload[0] == "rr-subscribe":
            _, user_id, room_id = payload
            self.subscribe(user_id, src, room_id)

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def _send_frame(self, user_id: str) -> None:
        state = self._subscribers[user_id]
        frame_bytes = int(self.quality.bitrate_bps / self.quality.fps / 8)
        self.frames_sent += 1
        self.socket.send_to(
            state["endpoint"], frame_bytes, ("video-frame", self.sim.now)
        )
        self.sim.schedule(1.0 / self.quality.fps, self._send_frame, user_id)


def forwarding_downlink_mbps(avatar_kbps: float, n_users: int) -> float:
    """Per-viewer downlink under the forwarding architecture.

    Grows linearly with the number of *other* users — the scalability
    problem remote rendering removes.
    """
    if n_users < 1:
        raise ValueError(f"n_users must be >= 1, got {n_users}")
    return avatar_kbps * (n_users - 1) / 1000.0


def crossover_users(avatar_kbps: float, quality: VideoQuality) -> int:
    """Smallest user count where forwarding needs more downlink than
    remote rendering at ``quality``."""
    users = 2
    while forwarding_downlink_mbps(avatar_kbps, users) <= quality.mbps:
        users += 1
        if users > 1_000_000:
            raise RuntimeError("no crossover below 1M users")
    return users
