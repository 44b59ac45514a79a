"""repro.scale: fluid-vs-packet speedup and fan-out timing.

Two wall-clock checks on the fluid scale engine:

* a fluid room is >= 100x faster than the equivalent packet room,
* a 1000-room (20k-user) fan-out completes in interactive time.

That the fluid rates match the packet engine's per-channel payload
throughput (within 5%, 2-15 users, every platform) is a tier-1 test,
``tests/test_scale_agreement.py``.

The measured numbers are written as a JSON artifact (for CI upload)
to ``$SCALE_BENCH_JSON`` or the untracked ``benchmarks/scale_bench.json``;
they carry wall-clock times, so they stay out of ``RESULTS.txt``.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.measure.session import Testbed
from repro.scale import ScaleScenario, run_sharded, simulate_room

_ARTIFACT: dict = {}


def _artifact_path() -> pathlib.Path:
    default = pathlib.Path(__file__).parent / "scale_bench.json"
    return pathlib.Path(os.environ.get("SCALE_BENCH_JSON", default))


def _write_artifact() -> pathlib.Path:
    path = _artifact_path()
    path.write_text(json.dumps(_ARTIFACT, indent=2, sort_keys=True) + "\n")
    return path


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
