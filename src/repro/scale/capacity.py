"""Infrastructure planner: what does a metaverse-scale event cost?

The paper stops at "today's architecture does not scale" (Sec. 7);
this module quantifies the claim in deployment units.  Given a target
concurrent-user count, it sizes the server fleet per architecture
(forwarding / P2P / interest-scoped / remote rendering) from the same
per-room rate models the fluid engine uses, then prices egress and
machines so the four architectures can be compared on one axis:
dollars per concurrent user per hour.

The dollar figures are list prices of a generic public cloud (not any
specific provider) and exist for *relative* comparison between
architectures, not absolute billing.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from .aggregate import ARCHITECTURES, RoomModel, room_model

#: NIC line rate of one commodity relay/session server.
SERVER_NIC_BPS = 10e9
#: Target utilisation headroom — plan at 70% of line rate.
SERVER_UTILISATION = 0.7
#: Avatar updates one relay server core can route per second
#: (forwarding is per-packet work, not per-byte work).
SERVER_UPDATES_PER_S = 300_000.0
#: Concurrent 1080p60 encodes per GPU server (NVENC-class sessions).
GPU_STREAMS_PER_SERVER = 72


@dataclasses.dataclass(frozen=True)
class CostModel:
    """Unit prices used to compare architectures."""

    usd_per_server_hour: float = 0.80  # commodity relay/session box
    usd_per_gpu_server_hour: float = 3.20  # GPU render/encode box
    usd_per_egress_gb: float = 0.05  # volume-tier internet egress


DEFAULT_COST_MODEL = CostModel()


@dataclasses.dataclass(frozen=True)
class CapacityPlan:
    """Fleet sizing for one architecture at one population."""

    platform: str
    architecture: str
    total_users: int
    users_per_room: int
    n_rooms: int
    servers: int
    gpu_servers: int
    egress_gbps: float
    user_down_mbps: float
    user_up_mbps: float
    usd_per_hour: float

    @property
    def usd_per_ccu_hour(self) -> float:
        return self.usd_per_hour / max(1, self.total_users)


def _servers_for(model: RoomModel, n_rooms: int) -> typing.Tuple[int, int]:
    """(relay/session servers, GPU servers) to host ``n_rooms`` rooms."""
    egress_bps = model.server_egress_bytes_per_s * 8.0 * n_rooms
    updates_per_s = model.server_updates_per_s * n_rooms
    by_egress = egress_bps / (SERVER_NIC_BPS * SERVER_UTILISATION)
    by_updates = updates_per_s / SERVER_UPDATES_PER_S
    servers = max(1, int(math.ceil(max(by_egress, by_updates))))
    gpu_servers = 0
    if model.architecture == "remote-rendering":
        streams = model.n_users * n_rooms
        gpu_servers = int(math.ceil(streams / GPU_STREAMS_PER_SERVER))
        # The relay fleet still terminates sessions/ingest, but egress
        # rides the GPU boxes' NICs.
        servers = max(
            1,
            int(
                math.ceil(
                    model.server_ingress_bytes_per_s
                    * 8.0
                    * n_rooms
                    / (SERVER_NIC_BPS * SERVER_UTILISATION)
                )
            ),
        )
    return servers, gpu_servers


def plan_capacity(
    platform: str,
    total_users: int,
    users_per_room: int = 20,
    *,
    architectures: typing.Sequence[str] = ARCHITECTURES,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    viewport_factor: typing.Union[float, str, None] = "uniform",
) -> typing.List[CapacityPlan]:
    """Size and price each architecture for ``total_users`` concurrent
    users split into rooms of ``users_per_room``."""
    if total_users < 1:
        raise ValueError("total_users must be >= 1")
    if users_per_room < 1:
        raise ValueError("users_per_room must be >= 1")
    n_rooms = int(math.ceil(total_users / users_per_room))
    plans = []
    for architecture in architectures:
        model = room_model(
            platform,
            users_per_room,
            architecture,
            viewport_factor=viewport_factor,
        )
        servers, gpu_servers = _servers_for(model, n_rooms)
        egress_bps = model.server_egress_bytes_per_s * 8.0 * n_rooms
        egress_gb_per_hour = egress_bps * 3600.0 / 8.0 / 1e9
        usd_per_hour = (
            servers * cost_model.usd_per_server_hour
            + gpu_servers * cost_model.usd_per_gpu_server_hour
            + egress_gb_per_hour * cost_model.usd_per_egress_gb
        )
        plans.append(
            CapacityPlan(
                platform=model.platform,
                architecture=architecture,
                total_users=total_users,
                users_per_room=users_per_room,
                n_rooms=n_rooms,
                servers=servers,
                gpu_servers=gpu_servers,
                egress_gbps=egress_bps / 1e9,
                user_down_mbps=model.user_down_mbps,
                user_up_mbps=model.user_up_mbps,
                usd_per_hour=usd_per_hour,
            )
        )
    return plans


def capacity_table(plans: typing.Sequence[CapacityPlan]) -> str:
    """Render plans as the aligned text table the CLI prints."""
    header = (
        f"{'architecture':<18} {'servers':>8} {'gpu':>6} {'egress':>12} "
        f"{'down/user':>10} {'up/user':>10} {'$/hour':>10} {'$/ccu-hr':>10}"
    )
    lines = [header, "-" * len(header)]
    for plan in plans:
        lines.append(
            f"{plan.architecture:<18} {plan.servers:>8,} {plan.gpu_servers:>6,} "
            f"{plan.egress_gbps:>9.2f} Gbps "
            f"{plan.user_down_mbps:>5.1f} Mbps "
            f"{plan.user_up_mbps:>5.1f} Mbps "
            f"{plan.usd_per_hour:>10,.0f} "
            f"{plan.usd_per_ccu_hour:>10.5f}"
        )
    return "\n".join(lines)
