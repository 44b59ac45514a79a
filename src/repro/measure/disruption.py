"""Network-disruption experiments (Sec. 8): Figs. 12-13 and Sec. 8.2.

The paper shapes U1's access link with ``tc-netem`` while two users
play a shooting game (Arena Clash on Worlds), in staged conditions of
40 s followed by 60 s of recovery:

* downlink bandwidth: 1.0/0.7/0.5/0.3/0.2/0.1 Mbps (Fig. 12),
* uplink bandwidth: 1.5/1.2/1.0/0.7/0.5/0.3 Mbps (Fig. 13 top),
* TCP-only uplink delay 5/10/15 s then 100% TCP loss (Fig. 13 bottom),
* added latency 50-500 ms and packet loss 1-20% (Sec. 8.2).
"""

from __future__ import annotations

import dataclasses
import typing

from ..capture.sniffer import DOWNLINK, UPLINK
from ..capture.timeseries import throughput_series
from ..net.packet import Protocol
from .latency import measure_latency
from .session import Testbed, download_drain_s
from .stats import Summary, summarize

STAGE_S = 40.0
RECOVERY_S = 60.0
SETTLE_S = 8.0

DOWNLINK_STAGES_MBPS = (1.0, 0.7, 0.5, 0.3, 0.2, 0.1)
UPLINK_STAGES_MBPS = (1.5, 1.2, 1.0, 0.7, 0.5, 0.3)
TCP_DELAY_STAGES_S = (5.0, 10.0, 15.0)
LATENCY_STAGES_MS = (50, 100, 200, 300, 400, 500)
LOSS_STAGES = (0.01, 0.03, 0.05, 0.07, 0.10, 0.20)

#: Sec. 8.2: extra latency that ruins a shooting game.
GAME_LATENCY_THRESHOLD_MS = 50.0
#: Sec. 8.2: E2E latency beyond which walking/chatting feels degraded.
CHAT_E2E_THRESHOLD_MS = 300.0
#: Motion-prediction/interpolation horizon: update gaps shorter than
#: this are concealed by the client (Sec. 8.2: even 20% loss goes
#: unnoticed — avatars are coarse and missing motion is predicted).
PREDICTION_HORIZON_S = 1.5


@dataclasses.dataclass
class StageMetrics:
    """Mean client metrics during one disruption stage."""

    label: str
    start: float
    end: float
    up_kbps: Summary
    down_kbps: Summary
    udp_up_kbps: Summary
    tcp_up_kbps: Summary
    cpu_pct: Summary
    gpu_pct: Summary
    fps: Summary
    stale_per_s: Summary


@dataclasses.dataclass
class DisruptionRun:
    """A full staged-disruption run on one user."""

    platform: str
    scenario: str
    stages: typing.List[StageMetrics]
    #: Full per-second series for figure-style output.
    times_s: typing.List[float]
    up_kbps: typing.List[float]
    down_kbps: typing.List[float]
    udp_up_kbps: typing.List[float]
    tcp_up_kbps: typing.List[float]
    u2_down_kbps: typing.List[float]
    frozen: bool
    udp_dead: bool
    tcp_recovered: bool
    clock_sync_stale_during_delay: bool


def _game_testbed(platform: str, seed: int) -> Testbed:
    testbed = Testbed(platform, n_users=2, seed=seed)
    testbed.start_all(join_at=2.0)

    def start_game() -> None:
        for station in testbed.stations:
            station.client.in_game = True

    testbed.sim.schedule_at(2.0 + SETTLE_S / 2, start_game)
    return testbed


def _collect(testbed: Testbed, scenario: str, stages, end: float) -> DisruptionRun:
    u1 = testbed.u1
    records = u1.sniffer.records
    up = throughput_series([r for r in records if r.direction == UPLINK], 0, end, 1.0)
    down = throughput_series(
        [r for r in records if r.direction == DOWNLINK], 0, end, 1.0
    )
    udp_up = throughput_series(
        [r for r in records if r.direction == UPLINK and r.protocol is Protocol.UDP],
        0,
        end,
        1.0,
    )
    tcp_up = throughput_series(
        [r for r in records if r.direction == UPLINK and r.protocol is Protocol.TCP],
        0,
        end,
        1.0,
    )
    u2_down = throughput_series(
        [
            r
            for r in testbed.u2.sniffer.records
            if r.direction == DOWNLINK and r.protocol is Protocol.UDP
        ],
        0,
        end,
        1.0,
    )
    stage_metrics = []
    for label, start, stop in stages:
        window = u1.sampler.window(start, stop)
        in_window = lambda series: [
            v for t, v in zip(series.times_s, series.kbps) if start <= t < stop
        ]
        stage_metrics.append(
            StageMetrics(
                label=label,
                start=start,
                end=stop,
                up_kbps=summarize(in_window(up)),
                down_kbps=summarize(in_window(down)),
                udp_up_kbps=summarize(in_window(udp_up)),
                tcp_up_kbps=summarize(in_window(tcp_up)),
                cpu_pct=summarize([s.cpu_pct for s in window]),
                gpu_pct=summarize([s.gpu_pct for s in window]),
                fps=summarize([s.fps for s in window]),
                stale_per_s=summarize([s.stale_per_s for s in window]),
            )
        )
    return DisruptionRun(
        platform=testbed.profile.name,
        scenario=scenario,
        stages=stage_metrics,
        times_s=list(up.times_s),
        up_kbps=list(up.kbps),
        down_kbps=list(down.kbps),
        udp_up_kbps=list(udp_up.kbps),
        tcp_up_kbps=list(tcp_up.kbps),
        u2_down_kbps=list(u2_down.kbps),
        frozen=u1.client.frozen,
        udp_dead=u1.client.udp_dead,
        tcp_recovered=u1.client.control.tcp.all_acked,
        clock_sync_stale_during_delay=False,
    )


def run_downlink_disruption(
    platform: str = "worlds",
    stages_mbps: typing.Sequence[float] = DOWNLINK_STAGES_MBPS,
    seed: int = 0,
) -> DisruptionRun:
    """Fig. 12: staged downlink bandwidth limits during a game."""
    return _run_bandwidth_stages(platform, stages_mbps, seed, DOWNLINK)


def run_uplink_disruption(
    platform: str = "worlds",
    stages_mbps: typing.Sequence[float] = UPLINK_STAGES_MBPS,
    seed: int = 0,
) -> DisruptionRun:
    """Fig. 13 (top): staged uplink bandwidth limits during a game."""
    return _run_bandwidth_stages(platform, stages_mbps, seed, UPLINK)


def _run_bandwidth_stages(
    platform: str, stages_mbps: typing.Sequence[float], seed: int, direction: str
) -> DisruptionRun:
    """Limit U1's ``direction`` bandwidth stage by stage, then recover."""
    testbed = _game_testbed(platform, seed)
    netem = testbed.u1.netem_down if direction == DOWNLINK else testbed.u1.netem_up
    stages = []
    t = SETTLE_S + 2.0
    for rate in stages_mbps:
        testbed.sim.schedule_at(t, netem.configure, rate * 1e6, 0.0, 0.0, None)
        stages.append((f"{rate}", t, t + STAGE_S))
        t += STAGE_S
    testbed.sim.schedule_at(t, netem.clear)
    stages.append(("N", t, t + RECOVERY_S))
    end = t + RECOVERY_S
    testbed.run(until=end)
    return _collect(testbed, f"{direction}link-bandwidth", stages, end)


def run_tcp_uplink_control(
    platform: str = "worlds",
    delay_stages_s: typing.Sequence[float] = TCP_DELAY_STAGES_S,
    delay_stage_len_s: float = 60.0,
    loss_stage_len_s: float = 60.0,
    recovery_len_s: float = 60.0,
    seed: int = 0,
) -> DisruptionRun:
    """Fig. 13 (bottom): shape *only* TCP uplink traffic.

    Increasing delays open matching gaps in the UDP uplink (Worlds
    blocks UDP until TCP delivery); 100% TCP loss kills the UDP session
    after ~30 s and the screen freezes; clearing the loss lets TCP
    recover but not UDP.
    """
    testbed = _game_testbed(platform, seed)
    stages = []
    # Warm up through a few report cycles first so the control
    # connection's congestion window holds a full report — on the real
    # platform the connection is long-lived and already warm.
    t = SETTLE_S + 2.0 + 30.0
    clock_stale_seen = {"value": False}
    delay_phase_start = t
    for delay in delay_stages_s:
        testbed.sim.schedule_at(
            t, testbed.u1.netem_up.configure, None, delay, 0.0, Protocol.TCP
        )
        stages.append((f"{delay:.0f}s", t, t + delay_stage_len_s))
        t += delay_stage_len_s

    def check_clock() -> None:
        # The in-game countdown board stops updating in real time while
        # TCP (which carries clock sync) is delayed (Sec. 8.1).
        if testbed.u1.client.clock_sync_stale:
            clock_stale_seen["value"] = True

    probe_time = delay_phase_start + 5.0
    while probe_time < t:
        testbed.sim.schedule_at(probe_time, check_clock)
        probe_time += 2.0
    testbed.sim.schedule_at(
        t, testbed.u1.netem_up.configure, None, 0.0, 1.0, Protocol.TCP
    )
    stages.append(("100%", t, t + loss_stage_len_s))
    t += loss_stage_len_s
    testbed.sim.schedule_at(t, testbed.u1.netem_up.clear)
    stages.append(("N", t, t + recovery_len_s))
    end = t + recovery_len_s
    testbed.run(until=end)
    run = _collect(testbed, "tcp-uplink-priority", stages, end)
    run.clock_sync_stale_during_delay = clock_stale_seen["value"]
    return run


# ----------------------------------------------------------------------
# Sec. 8.2 — latency and packet-loss disruption QoE
# ----------------------------------------------------------------------
@dataclasses.dataclass
class QoeAssessment:
    """Whether a disruption level is perceptible, and why."""

    platform: str
    scenario: str  # "chat" or "game"
    added_latency_ms: float
    loss_rate: float
    measured_e2e_ms: typing.Optional[float]
    max_update_gap_s: float
    disturbed: bool
    reason: str


def assess_latency_disruption(
    platform: str,
    added_latency_ms: float,
    scenario: str = "chat",
    seed: int = 0,
    n_actions: int = 12,
) -> QoeAssessment:
    """Sec. 8.2: add symmetric latency and judge the experience.

    Walking/chatting degrades when total E2E exceeds ~300 ms; gaming
    degrades with as little as 50 ms of added latency.
    """
    testbed = Testbed(platform, n_users=2, seed=seed)
    testbed.start_all(join_at=2.0)
    # tc-netem adds the full configured delay to each direction of
    # U1's access link (the paper's "Uplink/Downlink Latency" knob).
    delay_s = added_latency_ms / 1000.0
    testbed.u1.netem_up.configure(None, delay_s, 0.0, None)
    testbed.u1.netem_down.configure(None, delay_s, 0.0, None)
    first_action = 2.0 + SETTLE_S + download_drain_s(testbed.profile)
    for k in range(n_actions):
        testbed.u1.client.perform_action(k, first_action + k * 2.0)
    end = first_action + n_actions * 2.0 + 3.0
    testbed.run(until=end)
    shown = [
        rec["display_at"] - testbed.u1.client.sent_actions[k]["t0"]
        for k, rec in testbed.u2.client.action_displays.items()
        if k in testbed.u1.client.sent_actions
    ]
    e2e_ms = 1000.0 * sum(shown) / len(shown) if shown else None
    if scenario == "game":
        disturbed = added_latency_ms >= GAME_LATENCY_THRESHOLD_MS
        reason = (
            f"added {added_latency_ms:.0f} ms vs {GAME_LATENCY_THRESHOLD_MS:.0f} ms "
            "gaming threshold"
        )
    else:
        disturbed = e2e_ms is not None and e2e_ms > CHAT_E2E_THRESHOLD_MS
        reason = (
            f"measured E2E {e2e_ms:.0f} ms vs {CHAT_E2E_THRESHOLD_MS:.0f} ms "
            "collaborative threshold"
            if e2e_ms is not None
            else "no actions delivered"
        )
    return QoeAssessment(
        platform=testbed.profile.name,
        scenario=scenario,
        added_latency_ms=added_latency_ms,
        loss_rate=0.0,
        measured_e2e_ms=e2e_ms,
        max_update_gap_s=0.0,
        disturbed=disturbed,
        reason=reason,
    )


def assess_loss_disruption(
    platform: str,
    loss_rate: float,
    window_s: float = 30.0,
    seed: int = 0,
) -> QoeAssessment:
    """Sec. 8.2: apply symmetric random loss and judge the experience.

    Users perceive nothing up to 20% loss: avatars are coarse and
    motion prediction conceals gaps shorter than the prediction
    horizon. Disturbance requires an update gap the predictor cannot
    cover.
    """
    testbed = Testbed(platform, n_users=2, seed=seed)
    testbed.start_all(join_at=2.0)
    testbed.u1.netem_down.configure(None, 0.0, loss_rate, None)
    testbed.u1.netem_up.configure(None, 0.0, loss_rate, None)
    start = 2.0 + SETTLE_S + download_drain_s(testbed.profile)
    end = start + window_s
    testbed.run(until=end)
    # Largest gap between consecutive avatar-data packets on U1's
    # downlink during the lossy window.
    data_times = [
        r.time
        for r in testbed.u1.sniffer.records
        if r.direction == DOWNLINK and r.size >= 85 and start <= r.time < end
    ]
    max_gap = 0.0
    for previous, current in zip(data_times, data_times[1:]):
        max_gap = max(max_gap, current - previous)
    disturbed = max_gap > PREDICTION_HORIZON_S
    return QoeAssessment(
        platform=testbed.profile.name,
        scenario="chat",
        added_latency_ms=0.0,
        loss_rate=loss_rate,
        measured_e2e_ms=None,
        max_update_gap_s=max_gap,
        disturbed=disturbed,
        reason=(
            f"max update gap {max_gap * 1000:.0f} ms vs "
            f"{PREDICTION_HORIZON_S * 1000:.0f} ms prediction horizon"
        ),
    )
