"""Packet-engine benchmark: wall time, events/sec, and peak RSS.

Exercises the dataplane hot path end to end on three representative
workloads and writes a machine-readable summary to the repo root
(``BENCH_packet_engine.json`` by default):

* ``fig7_sweep`` — the Fig. 7 scalability sweep (1-15 users on VRChat,
  serial, one seed per point),
* ``fig9_hubs_large`` — the Fig. 9 large event on the private Hubs
  server (28 users, the heaviest single simulation in the repo),
* ``disruption`` — a Sec. 8 staged netem run on Worlds (two stations,
  qdisc shaping and retained capture records).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_packet_engine.py
    PYTHONPATH=src python benchmarks/bench_packet_engine.py --quick \
        --baseline benchmarks/packet_engine_baseline.json

``--quick`` shrinks every workload for CI smoke runs.  With
``--baseline``, the script compares per-workload events/sec against the
committed baseline and exits non-zero when any workload regresses more
than ``--max-regression`` (default 30%) — wall time and RSS are recorded
but not gated, since absolute speed varies across runner hardware.

The script tolerates the pre-refactor testbed API (no
``retain_records`` keyword), so the same file can be pointed at an old
checkout to measure genuine before/after speedups.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import sys
import time


def _make_testbed(platform: str, n_users: int, seed: int):
    from repro.measure.session import Testbed

    try:
        return Testbed(platform, n_users=n_users, seed=seed, retain_records=False)
    except TypeError:  # pre-refactor testbed: always retains records
        return Testbed(platform, n_users=n_users, seed=seed)


def _run_point(platform: str, n_users: int, window_s: float, seed: int) -> int:
    """One Fig. 7/9 sweep point; returns kernel events dispatched."""
    from repro.measure.session import download_drain_s

    testbed = _make_testbed(platform, n_users=1, seed=seed)
    join_at = 2.0
    testbed.start_all(join_at=join_at)
    if n_users > 1:
        testbed.add_peers(n_users - 1, join_times=[join_at] * (n_users - 1))
    end = join_at + 8.0 + download_drain_s(testbed.profile) + window_s
    testbed.run(until=end)
    return testbed.sim.event_count


def workload_fig7_sweep(quick: bool) -> int:
    counts = (1, 3, 5) if quick else (1, 2, 3, 5, 7, 10, 12, 15)
    window_s = 10.0 if quick else 20.0
    events = 0
    for index, count in enumerate(counts):
        events += _run_point("vrchat", count, window_s, seed=index)
    return events


def workload_fig9_hubs_large(quick: bool) -> int:
    n_users = 10 if quick else 28
    window_s = 10.0 if quick else 20.0
    return _run_point("hubs-private", n_users, window_s, seed=0)


def workload_disruption(quick: bool) -> int:
    """Staged downlink shaping on a Worlds game session (Sec. 8)."""
    from repro.measure.disruption import DOWNLINK_STAGES_MBPS, SETTLE_S

    stage_s = 10.0 if quick else 40.0
    stages = DOWNLINK_STAGES_MBPS[:2] if quick else DOWNLINK_STAGES_MBPS
    testbed = _make_testbed("worlds", n_users=2, seed=0)
    testbed.start_all(join_at=2.0)

    def start_game() -> None:
        for station in testbed.stations:
            station.client.in_game = True

    sim = testbed.sim
    sim.schedule_at(2.0 + SETTLE_S / 2, start_game)
    netem = testbed.u1.netem_down
    at = 2.0 + SETTLE_S
    for rate_mbps in stages:
        sim.schedule_at(at, netem.configure, rate_mbps * 1e6)
        at += stage_s
    sim.schedule_at(at, netem.clear)
    testbed.run(until=at + stage_s)
    return sim.event_count


WORKLOADS = (
    ("fig7_sweep", workload_fig7_sweep),
    ("fig9_hubs_large", workload_fig9_hubs_large),
    ("disruption", workload_disruption),
)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_benchmarks(quick: bool) -> dict:
    results = {}
    for name, workload in WORKLOADS:
        started = time.perf_counter()
        events = workload(quick)
        wall_s = time.perf_counter() - started
        results[name] = {
            "wall_s": round(wall_s, 3),
            "events": events,
            "events_per_s": round(events / wall_s, 1),
            # ru_maxrss is process-lifetime peak: monotone across
            # workloads, attributable to the heaviest one so far.
            "peak_rss_mb": round(_peak_rss_mb(), 1),
        }
        print(
            f"{name}: {wall_s:.2f}s wall, {events} events "
            f"({results[name]['events_per_s']:,.0f}/s), "
            f"peak RSS {results[name]['peak_rss_mb']:.0f} MB",
            flush=True,
        )
    return results


def compare_to_baseline(
    results: dict, baseline: dict, max_regression: float
) -> list:
    """Workloads whose events/sec fell more than ``max_regression``."""
    failures = []
    for name, measured in results.items():
        reference = baseline.get("workloads", {}).get(name)
        if reference is None:
            continue
        floor = reference["events_per_s"] * (1.0 - max_regression)
        if measured["events_per_s"] < floor:
            failures.append(
                f"{name}: {measured['events_per_s']:,.0f} events/s is below "
                f"{floor:,.0f} (baseline {reference['events_per_s']:,.0f} "
                f"- {max_regression:.0%})"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="reduced-scale workloads (CI smoke)"
    )
    parser.add_argument(
        "--out",
        default="BENCH_packet_engine.json",
        help="output JSON path (default: repo-root BENCH_packet_engine.json)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON to gate events/sec against",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="allowed fractional events/sec drop vs baseline (default 0.30)",
    )
    args = parser.parse_args(argv)

    results = run_benchmarks(quick=args.quick)
    payload = {
        "benchmark": "packet_engine",
        "mode": "quick" if args.quick else "full",
        "python": sys.version.split()[0],
        # Wall time and events/sec depend on the host; record its size.
        "host_cpus": os.cpu_count(),
        "workloads": results,
    }
    out_path = pathlib.Path(args.out)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")

    if args.baseline:
        baseline = json.loads(pathlib.Path(args.baseline).read_text())
        failures = compare_to_baseline(results, baseline, args.max_regression)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print("all workloads within the regression budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
