"""High-level public API: one call per paper artifact.

These functions are what the examples and benchmarks use; each returns
plain dataclasses from :mod:`repro.measure` so downstream code never
needs to assemble testbeds by hand.

===================  ====================================================
Paper artifact       API call
===================  ====================================================
Table 1              :func:`table1_features`
Table 2              :func:`table2_infrastructure`
Table 3              :func:`table3_throughput`
Table 4              :func:`table4_latency`
Fig. 2               :func:`fig2_channel_timelines`
Fig. 3               :func:`fig3_forwarding`
Fig. 6               :func:`fig6_join_timelines`
Fig. 7 / Fig. 8      :func:`fig7_fig8_user_sweep`
Fig. 9               :func:`fig9_hubs_large_scale`
Fig. 11              :func:`fig11_latency_scaling`
Fig. 12              :func:`fig12_downlink_disruption`
Fig. 13              :func:`fig13_uplink_disruption`
Sec. 6.1 viewport    :func:`viewport_width_experiment`
Sec. 6.3 RR          :func:`remote_rendering_study`
Sec. 8.2 QoE         :func:`latency_loss_qoe`
===================  ====================================================
"""

from __future__ import annotations

import dataclasses
import typing

from ..measure.disruption import (
    DisruptionRun,
    QoeAssessment,
    assess_latency_disruption,
    assess_loss_disruption,
    run_downlink_disruption,
    run_tcp_uplink_control,
    run_uplink_disruption,
)
from ..measure.infrastructure import InfrastructureReport, probe_infrastructure
from ..measure.latency import LatencyBreakdown, measure_latency, measure_latency_scaling
from ..measure.scalability import (
    JoinTimeline,
    ScalabilityPoint,
    ViewportDetection,
    detect_viewport_width,
    run_hubs_large_scale,
    run_join_timeline,
    run_user_sweep,
)
from ..measure.session import Testbed, download_drain_s
from ..measure.throughput import (
    ChannelTimeline,
    ForwardingEvidence,
    TwoUserThroughput,
    measure_channel_timeline,
    measure_forwarding_correlation,
    table3_row,
)
from ..platforms.profiles import PLATFORM_NAMES
from ..platforms.registry import feature_table
from .remote_rendering import (
    AblationPoint,
    ArchitectureComparison,
    compare_architectures,
    forwarding_crossover,
    run_remote_rendering_ablation,
)

ALL_PLATFORMS = PLATFORM_NAMES


@dataclasses.dataclass
class SessionResult:
    """A compact summary of one quick two-user session."""

    platform: str
    uplink_kbps: float
    downlink_kbps: float
    fps: float
    cpu_pct: float


def run_two_user_session(
    platform: str, duration_s: float = 30.0, seed: int = 0
) -> SessionResult:
    """Quickstart: run a two-user session and summarize U1's view."""
    from ..capture.sniffer import DOWNLINK, UPLINK
    from ..capture.timeseries import average_kbps

    if not duration_s > 0:
        raise ValueError(f"duration_s must be positive, got {duration_s}")
    testbed = Testbed(platform, n_users=2, seed=seed)
    join_at = 2.0
    testbed.start_all(join_at=join_at)
    start = join_at + 10.0 + download_drain_s(testbed.profile)
    end = start + duration_s
    testbed.run(until=end)
    records = testbed.u1.sniffer.records
    snapshot = testbed.u1.client.device_snapshot()
    return SessionResult(
        platform=testbed.profile.name,
        uplink_kbps=average_kbps([r for r in records if r.direction == UPLINK], start, end),
        downlink_kbps=average_kbps(
            [r for r in records if r.direction == DOWNLINK], start, end
        ),
        fps=snapshot.fps,
        cpu_pct=snapshot.cpu_pct,
    )


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def table1_features() -> typing.List[dict]:
    """Table 1: the platform feature comparison."""
    return feature_table()


def table2_infrastructure(
    platforms: typing.Sequence[str] = ALL_PLATFORMS, seed: int = 0
) -> typing.Dict[str, InfrastructureReport]:
    """Table 2: protocols, server locations/owners, anycast, RTTs."""
    return {name: probe_infrastructure(name, seed=seed) for name in platforms}


def table3_throughput(
    platforms: typing.Sequence[str] = ALL_PLATFORMS, seed: int = 0
) -> typing.Dict[str, TwoUserThroughput]:
    """Table 3: two-user throughput, resolution, avatar bitrate."""
    return {name: table3_row(name, seed=seed) for name in platforms}


def table4_latency(
    platforms: typing.Sequence[str] = tuple(ALL_PLATFORMS) + ("hubs-private",),
    n_actions: int = 20,
    seed: int = 0,
) -> typing.Dict[str, LatencyBreakdown]:
    """Table 4: E2E latency breakdown, including the private Hubs row."""
    return {
        name: measure_latency(name, n_actions=n_actions, seed=seed)
        for name in platforms
    }


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------
def fig2_channel_timelines(
    platforms: typing.Sequence[str] = ("vrchat", "hubs", "altspacevr"),
    seed: int = 0,
) -> typing.Dict[str, ChannelTimeline]:
    """Fig. 2: channel throughput across welcome page -> social event."""
    return {
        name: measure_channel_timeline(name, seed=seed) for name in platforms
    }


def fig3_forwarding(
    platforms: typing.Sequence[str] = ("recroom", "worlds"),
    seed: int = 0,
) -> typing.Dict[str, ForwardingEvidence]:
    """Fig. 3: U1 uplink mirrored in U2 downlink."""
    return {
        name: measure_forwarding_correlation(name, seed=seed) for name in platforms
    }


def fig6_join_timelines(
    platforms: typing.Sequence[str] = ALL_PLATFORMS,
    include_altspace_exp2: bool = True,
    seed: int = 0,
) -> typing.Dict[str, JoinTimeline]:
    """Fig. 6: throughput as users join, with the 250 s turn-around."""
    results = {name: run_join_timeline(name, seed=seed) for name in platforms}
    if include_altspace_exp2:
        results["altspacevr-exp2"] = run_join_timeline(
            "altspacevr", facing_center_first=False, seed=seed
        )
    return results


def fig7_fig8_user_sweep(
    platforms: typing.Sequence[str] = ALL_PLATFORMS,
    user_counts: typing.Sequence[int] = (1, 2, 3, 4, 5, 7, 10, 12, 15),
    seed: int = 0,
) -> typing.Dict[str, typing.List[ScalabilityPoint]]:
    """Figs. 7/8: throughput, FPS, and resources vs user count."""
    return {
        name: run_user_sweep(name, user_counts=user_counts, seed=seed)
        for name in platforms
    }


def fig9_hubs_large_scale(
    user_counts: typing.Sequence[int] = (15, 20, 25, 28), seed: int = 0
) -> typing.List[ScalabilityPoint]:
    """Fig. 9: the 28-user event on the private Hubs server."""
    return run_hubs_large_scale(user_counts=user_counts, seed=seed)


def fig11_latency_scaling(
    platforms: typing.Sequence[str] = ALL_PLATFORMS,
    user_counts: typing.Sequence[int] = (2, 3, 4, 5, 6, 7),
    seed: int = 0,
) -> typing.Dict[str, typing.List[LatencyBreakdown]]:
    """Fig. 11: E2E latency growth with event size."""
    return {
        name: measure_latency_scaling(name, user_counts=user_counts, seed=seed)
        for name in platforms
    }


def fig12_downlink_disruption(seed: int = 0) -> DisruptionRun:
    """Fig. 12: Worlds under staged downlink bandwidth limits."""
    return run_downlink_disruption("worlds", seed=seed)


def fig13_uplink_disruption(seed: int = 0) -> typing.Tuple[DisruptionRun, DisruptionRun]:
    """Fig. 13: uplink shaping (top) and TCP-only shaping (bottom)."""
    return (
        run_uplink_disruption("worlds", seed=seed),
        run_tcp_uplink_control("worlds", seed=seed),
    )


# ----------------------------------------------------------------------
# Section studies
# ----------------------------------------------------------------------
def viewport_width_experiment(seed: int = 0) -> ViewportDetection:
    """Sec. 6.1: map AltspaceVR's server-side viewport (~150 deg)."""
    return detect_viewport_width("altspacevr", seed=seed)


def remote_rendering_study(
    avatar_kbps: float = 332.0,
    user_counts: typing.Sequence[int] = (2, 5, 10, 15, 50, 100),
    seed: int = 0,
) -> dict:
    """Sec. 6.3: forwarding vs remote rendering, analysis + ablation."""
    return {
        "comparison": compare_architectures(avatar_kbps, user_counts),
        "crossover_users": forwarding_crossover(avatar_kbps),
        "ablation": run_remote_rendering_ablation(seed=seed),
    }


def latency_loss_qoe(
    platforms: typing.Sequence[str] = ("recroom", "vrchat", "worlds"),
    latency_stages_ms: typing.Sequence[float] = (50, 100, 200, 300, 400, 500),
    loss_stages: typing.Sequence[float] = (0.01, 0.05, 0.10, 0.20),
    seed: int = 0,
) -> typing.Dict[str, typing.List[QoeAssessment]]:
    """Sec. 8.2: perceived impact of added latency and packet loss."""
    results: typing.Dict[str, typing.List[QoeAssessment]] = {}
    for name in platforms:
        assessments = []
        for added in latency_stages_ms:
            assessments.append(
                assess_latency_disruption(name, added, scenario="chat", seed=seed)
            )
        for loss in loss_stages:
            assessments.append(assess_loss_disruption(name, loss, seed=seed))
        results[name] = assessments
    return results
