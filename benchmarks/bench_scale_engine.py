"""repro.scale: fluid-vs-packet agreement, speedup, and fan-out timing.

Three checks on the hybrid-fidelity scale engine:

* the closed-form fluid rates match the packet engine's per-channel
  payload throughput within 5% on every platform,
* a fluid room is >= 100x faster than the equivalent packet room,
* a 1000-room (20k-user) fan-out completes in interactive time.

The measured numbers are written as a JSON artifact (for CI upload)
to ``$SCALE_BENCH_JSON`` or the untracked ``benchmarks/scale_bench.json``;
they carry wall-clock times, so they stay out of ``RESULTS.txt``.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.measure.report import render_table
from repro.measure.session import Testbed, download_drain_s
from repro.obs.context import collect
from repro.scale import (
    ScaleScenario,
    expected_channel_payload_kbps,
    run_sharded,
    simulate_room,
)

PLATFORMS = ("vrchat", "altspacevr", "recroom", "hubs", "worlds")
AGREEMENT_USERS = 10
AGREEMENT_SEEDS = (0, 1, 2)
AGREEMENT_WINDOW_S = 24.0
TOLERANCE = 0.05

_ARTIFACT: dict = {}


def _artifact_path() -> pathlib.Path:
    default = pathlib.Path(__file__).parent / "scale_bench.json"
    return pathlib.Path(os.environ.get("SCALE_BENCH_JSON", default))


def _write_artifact() -> pathlib.Path:
    path = _artifact_path()
    path.write_text(json.dumps(_ARTIFACT, indent=2, sort_keys=True) + "\n")
    return path


def _packet_channel_kbps(platform: str, n_users: int) -> dict:
    """Pooled per-channel payload Kbps from the packet engine's own
    client counters (3 seeds x 24 s steady-state windows).

    The uplink payload carries AR(1) activity noise (sigma ~= 0.18,
    tau ~= 12.5 ticks), so a single short window wanders 3-8% around
    the mean; pooling seeds and a multi-tau window brings the estimate
    inside the 5% agreement bound.
    """
    channels = ("avatar", "session")
    byte_totals = {(ch, d): 0.0 for ch in channels for d in ("up", "down")}
    pooled_window = 0.0
    for seed in AGREEMENT_SEEDS:
        with collect() as collector:
            testbed = Testbed(platform, n_users=1, seed=seed)
            testbed.start_all(join_at=2.0, sample_metrics=False)
            if n_users > 1:
                testbed.add_peers(n_users - 1, join_times=[2.0] * (n_users - 1))
            start = 2.0 + max(8.0, download_drain_s(testbed.profile)) + 2.0
            testbed.run(until=start)
            registry = collector.observabilities[0].registry

            def snapshot():
                out = {}
                for ch in channels:
                    tx = registry.value(
                        "platform.client.tx_bytes", user="u1", channel=ch
                    )
                    rx = registry.value(
                        "platform.client.rx_bytes", user="u1", channel=ch
                    )
                    out[(ch, "up")] = tx or 0.0
                    out[(ch, "down")] = rx or 0.0
                return out

            before = snapshot()
            testbed.run(until=start + AGREEMENT_WINDOW_S)
            after = snapshot()
        for key in byte_totals:
            byte_totals[key] += after[key] - before[key]
        pooled_window += AGREEMENT_WINDOW_S
    return {key: total * 8.0 / 1000.0 / pooled_window for key, total in byte_totals.items()}


def test_fluid_packet_agreement(benchmark, timing_report):
    def sweep():
        rows = {}
        for platform in PLATFORMS:
            rows[platform] = _packet_channel_kbps(platform, AGREEMENT_USERS)
        return rows

    measured = benchmark.pedantic(sweep, rounds=1, iterations=1)
    headers = ["Platform", "Channel", "Packet Kbps", "Fluid Kbps", "Error"]
    rows = []
    worst = 0.0
    agreement = []
    for platform in PLATFORMS:
        expected = expected_channel_payload_kbps(platform, AGREEMENT_USERS)
        for (channel, direction), fluid_kbps in sorted(expected.items()):
            packet_kbps = measured[platform].get((channel, direction), 0.0)
            if fluid_kbps < 0.1:
                # Channels the model says are silent must measure silent.
                assert packet_kbps < 0.5, (platform, channel, direction, packet_kbps)
                continue
            error = abs(packet_kbps - fluid_kbps) / fluid_kbps
            worst = max(worst, error)
            rows.append(
                [
                    platform,
                    f"{channel} {direction}",
                    f"{packet_kbps:.2f}",
                    f"{fluid_kbps:.2f}",
                    f"{error * 100:.2f}%",
                ]
            )
            agreement.append(
                {
                    "platform": platform,
                    "channel": channel,
                    "direction": direction,
                    "packet_kbps": packet_kbps,
                    "fluid_kbps": fluid_kbps,
                    "relative_error": error,
                }
            )
    _ARTIFACT["agreement"] = {
        "n_users": AGREEMENT_USERS,
        "seeds": list(AGREEMENT_SEEDS),
        "window_s": AGREEMENT_WINDOW_S,
        "worst_relative_error": worst,
        "channels": agreement,
    }
    path = _write_artifact()
    timing_report(
        "repro.scale cross-validation — fluid model vs packet engine "
        f"(n={AGREEMENT_USERS}, {len(AGREEMENT_SEEDS)} seeds pooled; "
        f"worst error {worst * 100:.2f}%; artifact: {path.name})",
        render_table(headers, rows, title="Per-channel payload throughput"),
    )
    assert worst < TOLERANCE


def test_fluid_speedup(benchmark, timing_report):
    """One fluid room must beat the packet room by >= 100x."""
    platform, n_users, duration_s = "vrchat", 15, 30.0

    def packet_room():
        testbed = Testbed(platform, n_users=1, seed=0)
        testbed.start_all(join_at=2.0, sample_metrics=False)
        testbed.add_peers(n_users - 1, join_times=[2.0] * (n_users - 1))
        testbed.run(until=duration_s)
        return testbed

    started = time.perf_counter()
    packet_room()
    packet_s = time.perf_counter() - started

    def fluid_room():
        return simulate_room(platform, n_users, duration_s)

    benchmark.pedantic(fluid_room, rounds=5, iterations=1)
    started = time.perf_counter()
    fluid_room()
    fluid_s = time.perf_counter() - started
    speedup = packet_s / max(fluid_s, 1e-9)
    _ARTIFACT["speedup"] = {
        "platform": platform,
        "n_users": n_users,
        "duration_s": duration_s,
        "packet_wall_s": packet_s,
        "fluid_wall_s": fluid_s,
        "speedup": speedup,
    }
    path = _write_artifact()
    timing_report(
        "repro.scale speedup — fluid vs packet room "
        f"({platform}, {n_users} users, {duration_s:.0f} s simulated)",
        f"packet engine: {packet_s:.3f} s wall\n"
        f"fluid engine:  {fluid_s * 1000:.3f} ms wall\n"
        f"speedup:       {speedup:.0f}x (floor: 100x)\n"
        f"artifact:      {path.name}",
    )
    assert speedup >= 100.0


def test_metaverse_fanout(benchmark, timing_report):
    """1000 churning rooms (20k users) through the sharded executor."""
    scenario = ScaleScenario(platform="vrchat", users_per_room=20, duration_s=300.0)

    result = benchmark.pedantic(
        run_sharded,
        args=(scenario, 1000),
        kwargs={"seed": 0},
        rounds=1,
        iterations=1,
    )
    _ARTIFACT["fanout"] = {
        "rooms": result.n_rooms,
        "users_per_room": scenario.users_per_room,
        "total_users": result.total_users,
        "mean_concurrent_users": result.mean_concurrent_users,
        "mean_egress_gbps": result.mean_egress_gbps,
        "peak_egress_gbps": result.peak_egress_gbps,
        "shards": result.shards,
        "wall_time_s": result.wall_time_s,
    }
    path = _write_artifact()
    timing_report(
        "repro.scale fan-out — 1000 rooms x 20 users, 300 s horizon",
        f"mean concurrent users: {result.mean_concurrent_users:,.0f}\n"
        f"aggregate egress:      {result.mean_egress_gbps:.2f} Gbps mean, "
        f"{result.peak_egress_gbps:.2f} Gbps peak\n"
        f"wall time:             {result.wall_time_s:.2f} s "
        f"({result.shards} shards)\n"
        f"artifact:              {path.name}",
    )
    assert result.total_users == 20_000
    assert result.wall_time_s < 120.0
