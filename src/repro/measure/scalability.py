"""Scalability experiments (Sec. 6): Figs. 6, 7, 8, 9 and the
viewport-width detection of Sec. 6.1.

* :func:`run_join_timeline` — Fig. 6: users join one by one at 50 s
  intervals; U1 turns 180 degrees at 250 s. Experiment 2 starts U1
  facing a corner instead (AltspaceVR's viewport optimization shows as
  a throughput cliff in both variants).
* :func:`run_user_sweep` — Figs. 7/8: downlink throughput, FPS, and
  CPU/GPU/memory at 1-15 users (controlled up to 5, public events
  beyond, as in the paper — crowd members are lightweight peers).
* :func:`run_hubs_large_scale` — Fig. 9: up to 28 users on the
  authors' private Hubs server.
* :func:`detect_viewport_width` — Sec. 6.1: snap-turn U1 in
  22.5-degree steps and find where U2's data starts being delivered.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from ..avatar.motion import SnapTurnSequence, Stand, TimedTurn
from ..avatar.pose import Vec3
from ..avatar.viewport import TURN_STEP_DEG
from ..capture.sniffer import DOWNLINK, UPLINK
from .session import Testbed, download_drain_s
from .stats import Summary, summarize

SETTLE_S = 8.0


# ----------------------------------------------------------------------
# Fig. 6 — join timeline with a 180-degree turn at 250 s
# ----------------------------------------------------------------------
@dataclasses.dataclass
class JoinTimeline:
    """Per-second uplink/downlink series for U1 during the Fig. 6 run."""

    platform: str
    times_s: typing.List[float]
    up_kbps: typing.List[float]
    down_kbps: typing.List[float]
    join_times: typing.List[float]
    turn_at: float
    #: Mean downlink in the windows the figure highlights.
    down_before_turn_kbps: float
    down_after_turn_kbps: float


def run_join_timeline(
    platform: typing.Union[str, object],
    join_interval_s: float = 50.0,
    n_joiners: int = 4,
    turn_at: float = 250.0,
    duration_s: float = 300.0,
    facing_center_first: bool = True,
    seed: int = 0,
) -> JoinTimeline:
    """Fig. 6 (and 6(f) with ``facing_center_first=False``)."""
    testbed = Testbed(platform, n_users=1, seed=seed, retain_records=False)
    u1 = testbed.u1
    # U1 stands at the edge; joiners cluster at the centre.
    u1.client.pose.position = Vec3(3.0, 0.0, 0.0)
    toward_center = -90.0  # bearing from (3,0,0) to the origin
    initial = toward_center if facing_center_first else toward_center + 180.0
    u1.client.motion = TimedTurn(initial_yaw=initial, turn_at=turn_at, turn_deg=180.0)
    # Start the reported series after U1's join download drains — the
    # paper omits Hubs' initial data downloading from Fig. 6 too.  The
    # bins accumulate as packets are captured; a five-minute join
    # timeline never holds per-packet records.
    series_start = 4.0 + download_drain_s(testbed.profile)
    up_bins = u1.sniffer.stream_bins(
        series_start, duration_s, bin_s=1.0, direction=UPLINK
    )
    down_bins = u1.sniffer.stream_bins(
        series_start, duration_s, bin_s=1.0, direction=DOWNLINK
    )
    testbed.start_all(join_at=2.0)
    join_times = [join_interval_s * (k + 1) for k in range(n_joiners)]
    testbed.add_peers(n_joiners, join_times=join_times, circle_radius=0.5)
    testbed.run(until=duration_s)

    up = up_bins.series()
    down = down_bins.series()
    return JoinTimeline(
        platform=testbed.profile.name,
        times_s=list(up.times_s),
        up_kbps=list(up.kbps),
        down_kbps=list(down.kbps),
        join_times=join_times,
        turn_at=turn_at,
        down_before_turn_kbps=down.mean_kbps(turn_at - 30.0, turn_at - 2.0),
        down_after_turn_kbps=down.mean_kbps(turn_at + 10.0, duration_s - 2.0),
    )


# ----------------------------------------------------------------------
# Figs. 7/8 — user sweep
# ----------------------------------------------------------------------
@dataclasses.dataclass
class ScalabilityPoint:
    """One user-count point of the Fig. 7/8 sweep."""

    n_users: int
    down_kbps: Summary
    up_kbps: Summary
    fps: Summary
    cpu_pct: Summary
    gpu_pct: Summary
    memory_mb: Summary


def run_user_sweep(
    platform: typing.Union[str, object],
    user_counts: typing.Sequence[int] = (1, 2, 3, 4, 5, 7, 10, 12, 15),
    window_s: float = 20.0,
    seed: int = 0,
) -> typing.List[ScalabilityPoint]:
    """Figs. 7/8: measure U1 as the event population grows.

    Each user-count point is an independent testbed build with its own
    seed, so the sweep runs as a campaign: one task per point, executed
    on the :mod:`repro.runner` process pool when safe (top-level
    process, no active obs collector) and serially otherwise.  Results
    are identical either way — every point owns its seed.
    """
    import multiprocessing

    from ..obs.context import active_collector
    from ..runner import TaskSpec, run_campaign

    if any(count < 1 for count in user_counts):
        raise ValueError(f"user_counts must all be >= 1, got {tuple(user_counts)}")
    if not isinstance(platform, str):
        # Profile objects are not worth shipping to workers; keep the
        # rare ad-hoc-profile path serial and allocation-free.
        return [
            _sweep_point(platform, count, window_s, seed=seed + index)
            for index, count in enumerate(user_counts)
        ]
    specs = [
        TaskSpec.create(
            _sweep_point,
            {"platform": platform, "n_users": count, "window_s": window_s},
            seed=seed + index,
        )
        for index, count in enumerate(user_counts)
    ]
    parallel = (
        len(specs) > 1
        and multiprocessing.parent_process() is None
        and active_collector() is None
    )
    campaign = run_campaign(
        specs, parallel=parallel, max_retries=0, use_cache=False, cache_dir=None
    )
    if campaign.failures:
        failure = campaign.failures[0]
        raise RuntimeError(
            f"sweep point {failure.spec.task_id} failed: {failure.error}"
        )
    return campaign.values()


def _sweep_point(
    platform, n_users: int, window_s: float, seed: int
) -> ScalabilityPoint:
    testbed = Testbed(platform, n_users=1, seed=seed, retain_records=False)
    join_at = 2.0
    download_drain = download_drain_s(testbed.profile)
    start = join_at + SETTLE_S + download_drain
    end = start + window_s
    u1 = testbed.u1
    down_bins = u1.sniffer.stream_bins(start, end, 1.0, direction=DOWNLINK)
    up_bins = u1.sniffer.stream_bins(start, end, 1.0, direction=UPLINK)
    testbed.start_all(join_at=join_at)
    if n_users > 1:
        testbed.add_peers(n_users - 1, join_times=[join_at] * (n_users - 1))
    testbed.run(until=end)
    down = down_bins.series()
    up = up_bins.series()
    window = u1.sampler.window(start, end)
    return ScalabilityPoint(
        n_users=n_users,
        down_kbps=summarize(down.kbps),
        up_kbps=summarize(up.kbps),
        fps=summarize([s.fps for s in window]),
        cpu_pct=summarize([s.cpu_pct for s in window]),
        gpu_pct=summarize([s.gpu_pct for s in window]),
        memory_mb=summarize([s.memory_mb for s in window]),
    )


def run_hubs_large_scale(
    user_counts: typing.Sequence[int] = (15, 20, 25, 28),
    window_s: float = 20.0,
    seed: int = 0,
) -> typing.List[ScalabilityPoint]:
    """Fig. 9: the large-scale event on the private Hubs server."""
    return run_user_sweep(
        "hubs-private", user_counts=user_counts, window_s=window_s, seed=seed
    )


# ----------------------------------------------------------------------
# Sec. 6.1 — viewport-width detection
# ----------------------------------------------------------------------
@dataclasses.dataclass
class ViewportDetection:
    """Result of the snap-turn probing of a server-side viewport."""

    platform: str
    step_deg: float
    step_throughput_kbps: typing.List[float]  # downlink per snap position
    onset_step: typing.Optional[int]  # first step where avatar data flows
    estimated_width_deg: typing.Optional[float]
    max_savings_fraction: typing.Optional[float]


def detect_viewport_width(
    platform: typing.Union[str, object] = "altspacevr",
    step_hold_s: float = 10.0,
    seed: int = 0,
) -> ViewportDetection:
    """Sec. 6.1: turn U1's back on U2, then snap-turn toward it.

    The first snap position at which U1's downlink carries avatar data
    brackets the server viewport's half-width; the paper derives
    ~150 degrees for AltspaceVR this way.
    """
    testbed = Testbed(platform, n_users=2, seed=seed, retain_records=False)
    u1, u2 = testbed.u1, testbed.u2
    # U2 stands still 4 m in front of where U1 initially faces *away*.
    u1.client.pose.position = Vec3(0.0, 0.0, 0.0)
    u2.client.pose.position = Vec3(0.0, 0.0, 4.0)
    u2.client.motion = Stand(sway_deg=0.0)
    start_turning = 2.0 + SETTLE_S
    # Facing 180 means U2 (at +z) sits exactly behind U1.
    turner = SnapTurnSequence(
        initial_yaw=180.0, step_interval_s=step_hold_s, start_at=start_turning
    )
    u1.client.motion = turner
    n_steps = int(360.0 / TURN_STEP_DEG / 2) + 1  # half-turn plus margin
    end = start_turning + n_steps * step_hold_s
    # One single-bin accumulator per held snap position (skipping the
    # first 1.5 s after each snap to let in-flight data settle) —
    # average downlink per window, streamed instead of retained.
    windows = []
    for step in range(n_steps):
        window_start = start_turning + step * step_hold_s + 1.5
        window_end = start_turning + (step + 1) * step_hold_s
        windows.append(
            u1.sniffer.stream_bins(
                window_start,
                window_end,
                bin_s=window_end - window_start,
                direction=DOWNLINK,
            )
        )
    testbed.start_all(join_at=2.0)
    testbed.run(until=end)

    overhead_kbps = testbed.profile.data.overhead_down_kbps
    per_step = [window.average_kbps() for window in windows]
    onset = None
    for step, kbps in enumerate(per_step):
        if kbps > overhead_kbps + 2.0:
            onset = step
            break
    if onset is None or onset == 0:
        width = 360.0 if onset == 0 else None
        savings = 0.0 if onset == 0 else None
    else:
        # After `onset` snaps U2's bearing is 180 - onset*22.5; the edge
        # lies between that and the previous position — take the middle.
        bearing_after = 180.0 - onset * TURN_STEP_DEG
        half_width = bearing_after + TURN_STEP_DEG / 2
        width = 2 * half_width
        savings = 1.0 - width / 360.0
    return ViewportDetection(
        platform=testbed.profile.name,
        step_deg=TURN_STEP_DEG,
        step_throughput_kbps=per_step,
        onset_step=onset,
        estimated_width_deg=width,
        max_savings_fraction=savings,
    )
