"""End-to-end latency measurement and breakdown (Sec. 7).

The paper's method, reproduced step by step:

1. U1 performs a distinct action (moving touching index fingers apart);
   screen recordings on both headsets, captured at the running FPS,
   give the last frame before the action on U1 and the first frame
   reflecting it on U2. Quest 2 clocks are synchronized against the
   WiFi AP at millisecond precision (ADB ``$EPOCHREALTIME`` + RTT
   compensation) — we model the residual sync error and the frame-rate
   capture quantization explicitly.
2. The breakdown recovers sender / server / receiver components from
   packet timestamps in the AP traces (feasible because the data rate
   is low and transfers sparse) plus ping RTTs to each user's server.
"""

from __future__ import annotations

import dataclasses
import typing

from ..capture.sniffer import DOWNLINK, UPLINK
from ..net.ping import ProbeTool
from .session import Testbed, download_drain_s
from .stats import Summary, summarize

#: Residual clock-sync error after the AP-based synchronization (ms).
CLOCK_SYNC_STD_MS = 1.5
#: Ignore tiny packets (TCP ACKs, RTCP reports) when locating the
#: action-bearing packet in a trace; AltspaceVR's avatar updates are
#: only 92 B on the wire, so the bar sits just below that.
MIN_ACTION_PACKET_BYTES = 85
ACTION_INTERVAL_S = 2.0
SETTLE_S = 12.0


@dataclasses.dataclass
class LatencyBreakdown:
    """One platform's Table 4 row (all values in milliseconds)."""

    platform: str
    n_users: int
    e2e: Summary
    sender: Summary
    receiver: Summary
    server: Summary
    actions_measured: int


def measure_latency(
    platform: typing.Union[str, object],
    n_actions: int = 20,
    n_users: int = 2,
    seed: int = 0,
    breakdown: bool = True,
) -> LatencyBreakdown:
    """Measure E2E latency (and its breakdown) between U1 and U2.

    Extra users beyond two join as lightweight crowd peers, matching
    the Fig. 11 scaling experiments. The paper notes the breakdown
    becomes infeasible with many users (packet intervals shrink); here
    the trace is still sparse enough per sender to keep reporting it.
    """
    if n_users < 2:
        raise ValueError(f"n_users must be >= 2 (a sender and a receiver), got {n_users}")
    if n_actions < 1:
        raise ValueError(f"n_actions must be >= 1, got {n_actions}")
    testbed = Testbed(platform, n_users=2, seed=seed)
    join_at = 2.0
    testbed.start_all(join_at=join_at)
    if n_users > 2:
        testbed.add_peers(n_users - 2, join_times=[join_at] * (n_users - 2))
    # Let the per-join download drain before measuring (Hubs re-fetches
    # ~20 MB at every join; actions issued mid-download would measure
    # TCP head-of-line blocking, not steady-state latency).
    first_action = (
        join_at + SETTLE_S + download_drain_s(testbed.profile)
    )
    for k in range(n_actions):
        testbed.u1.client.perform_action(k, first_action + k * ACTION_INTERVAL_S)
    end = first_action + n_actions * ACTION_INTERVAL_S + 3.0
    testbed.run(until=end)

    rng = testbed.sim.rng("latency-measurement")
    frame_s = testbed.u2.device.frame_interval_s

    # Network one-way transit estimate from AP pings (the paper's
    # breakdown method).
    up_leg = _half_rtt(testbed, testbed.u1)
    down_leg = _half_rtt(testbed, testbed.u2)

    e2e_ms, sender_ms, receiver_ms, server_ms = [], [], [], []
    u1_up = [
        r
        for r in testbed.u1.sniffer.records
        if r.direction == UPLINK and r.size >= MIN_ACTION_PACKET_BYTES
    ]
    u2_down = [r for r in testbed.u2.sniffer.records if r.direction == DOWNLINK]
    for k in range(n_actions):
        sent = testbed.u1.client.sent_actions.get(k)
        shown = testbed.u2.client.action_displays.get(k)
        if sent is None or shown is None:
            continue
        t0 = sent["t0"]
        # The action frame on U1's recording pins the send instant; the
        # adjacent uplink packet in the AP trace is the action packet.
        t_up = _first_record_after(u1_up, sent["sent_at"] - 1e-9)
        # Likewise on U2: the action packet is the downlink packet just
        # before the update reached the app (wifi transit ~1 ms).
        t_down = _last_record_before(u2_down, shown["arrived_at"] + 1e-9)
        if t_up is None or t_down is None:
            continue
        # Frame-capture method: receiver display time, quantized by the
        # recording frame rate, minus the action time, plus clock-sync
        # residuals on both devices.
        capture_quantization = rng.uniform(0.0, frame_s)
        sync_error = rng.gauss(0.0, CLOCK_SYNC_STD_MS / 1000.0) - rng.gauss(
            0.0, CLOCK_SYNC_STD_MS / 1000.0
        )
        e2e = (shown["display_at"] + capture_quantization + sync_error) - t0
        e2e_ms.append(e2e * 1000.0)
        sender_ms.append((t_up - t0) * 1000.0)
        server_ms.append(((t_down - t_up) - up_leg - down_leg) * 1000.0)
        receiver_ms.append((shown["display_at"] - t_down) * 1000.0)

    return LatencyBreakdown(
        platform=testbed.profile.name,
        n_users=n_users,
        e2e=summarize(e2e_ms),
        sender=summarize(sender_ms),
        receiver=summarize(receiver_ms),
        server=summarize(server_ms),
        actions_measured=len(e2e_ms),
    )


def measure_latency_scaling(
    platform: typing.Union[str, object],
    user_counts: typing.Sequence[int] = (2, 3, 4, 5, 6, 7),
    n_actions: int = 15,
    seed: int = 0,
) -> typing.List[LatencyBreakdown]:
    """Fig. 11: E2E latency as more users join the same event."""
    results = []
    for index, count in enumerate(user_counts):
        results.append(
            measure_latency(
                platform,
                n_actions=n_actions,
                n_users=count,
                seed=seed + index,
            )
        )
    return results


def _half_rtt(testbed: Testbed, station) -> float:
    """One-way delay estimate to the station's data server (seconds)."""
    endpoint = testbed.deployment.data_endpoint_for(station.host, station.index)
    sim = testbed.sim
    tool = ProbeTool(station.ap)
    process = sim.spawn(tool.ping_process(endpoint.ip, count=5))
    sim.run(until=sim.now + 8.0)
    result = process.value
    if result is None or not result.reachable:
        return 0.0
    return result.avg_rtt_ms / 2000.0


def _first_record_after(records, t: float) -> typing.Optional[float]:
    for record in records:
        if record.time >= t:
            return record.time
    return None


def _last_record_before(records, t: float) -> typing.Optional[float]:
    best = None
    for record in records:
        if record.time <= t:
            best = record.time
        else:
            break
    return best
