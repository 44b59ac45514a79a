"""Headset and client device profiles (Sec. 3.2 testbed hardware).

The paper's users run Oculus Quest 2 (untethered, 72 Hz default
refresh), HTC VIVE Cosmos (tethered to a PC, 90 Hz), or a plain PC.
Throughput turned out to be device-independent (Sec. 5.1), but FPS and
resource utilization are device properties, so they live here.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class Resolution:
    """Per-eye render resolution (W x H)."""

    width: int
    height: int

    def __str__(self) -> str:
        return f"{self.width}x{self.height}"


@dataclasses.dataclass(frozen=True)
class HeadsetProfile:
    """A client device: display, refresh, compute, memory, battery."""

    name: str
    kind: str  # "untethered", "tethered", or "pc"
    refresh_hz: float
    display_resolution: Resolution
    total_memory_gb: float
    battery_wh: float
    #: Relative compute scale; 1.0 = Quest 2. Tethered headsets render on
    #: the attached PC and get a larger budget.
    compute_scale: float

    @property
    def frame_interval_s(self) -> float:
        return 1.0 / self.refresh_hz


QUEST_2 = HeadsetProfile(
    name="Oculus Quest 2",
    kind="untethered",
    refresh_hz=72.0,
    display_resolution=Resolution(1832, 1920),
    total_memory_gb=6.0,
    battery_wh=14.0,
    compute_scale=1.0,
)

VIVE_COSMOS = HeadsetProfile(
    name="HTC VIVE Cosmos",
    kind="tethered",
    refresh_hz=90.0,
    display_resolution=Resolution(1440, 1700),
    total_memory_gb=16.0,
    battery_wh=float("inf"),  # mains-powered via the PC
    compute_scale=2.6,
)

PC_CLIENT = HeadsetProfile(
    name="PC (i7-7700K / GTX 1070)",
    kind="pc",
    refresh_hz=60.0,
    display_resolution=Resolution(1920, 1080),
    total_memory_gb=16.0,
    battery_wh=float("inf"),
    compute_scale=2.2,
)

DEVICES = {
    "quest2": QUEST_2,
    "vive": VIVE_COSMOS,
    "pc": PC_CLIENT,
}


def device(name: str) -> HeadsetProfile:
    """Look up a device profile by short name."""
    try:
        return DEVICES[name]
    except KeyError:
        raise KeyError(
            f"unknown device {name!r}; choose from {sorted(DEVICES)}"
        ) from None
