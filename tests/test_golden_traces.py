"""Golden-trace equivalence gate for the dataplane fastpath refactor.

Every performance change to the packet engine hot path (simcore heap,
link pipeline, capture accumulation, tick scheduler) must leave the
simulation *byte-identical*: same packets, same times, same RNG draws.
These tests run a small matrix — all five platforms, 2 and 5 users, two
seeds — and compare SHA-256 digests of

* the full per-station packet record stream (times as raw float64
  bytes, endpoints, protocol, size, direction),
* U1's uplink/downlink :class:`ThroughputSeries` bin arrays, and
* the aggregated flow table

against digests committed in ``tests/golden_traces.json``, generated on
the pre-refactor engine.  A mismatch means the refactor changed
simulation behaviour, not just its speed.

Regenerate (only when a change is *supposed* to alter traces, e.g. a
bug fix in the model itself)::

    PYTHONPATH=src python tests/test_golden_traces.py --regen
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import struct

import pytest

from repro.capture.flows import FlowTable
from repro.capture.sniffer import DOWNLINK, UPLINK
from repro.capture.timeseries import throughput_series
from repro.measure.session import Testbed, download_drain_s
from repro.platforms.profiles import PLATFORM_NAMES

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_traces.json"

#: (total_users, seed) grid; 5-user configs use 2 stations + 3 peers.
CONFIGS = [(users, seed) for users in (2, 5) for seed in (0, 1)]


def _run_testbed(platform: str, total_users: int, seed: int):
    testbed = Testbed(platform, n_users=2, seed=seed)
    join_at = 2.0
    testbed.start_all(join_at=join_at)
    if total_users > 2:
        testbed.add_peers(total_users - 2, join_times=[join_at] * (total_users - 2))
    drain = download_drain_s(testbed.profile)
    start = join_at + drain + 2.0
    end = start + 10.0
    testbed.run(until=end)
    return testbed, start, end


def _records_digest(records) -> str:
    h = hashlib.sha256()
    pack = struct.pack
    for r in records:
        h.update(pack("<d", r.time))
        h.update(pack("<IHIH", r.src.ip.value, r.src.port, r.dst.ip.value, r.dst.port))
        h.update(str(r.protocol).encode())
        h.update(pack("<i", r.size))
        h.update(r.direction.encode())
    return h.hexdigest()


def _series_digest(records, start: float, end: float) -> str:
    h = hashlib.sha256()
    for direction in (UPLINK, DOWNLINK):
        series = throughput_series(
            [r for r in records if r.direction == direction], start, end, bin_s=1.0
        )
        h.update(series.times_s.tobytes())
        h.update(series.bits_per_bin.tobytes())
    return h.hexdigest()


def _flows_digest(records) -> str:
    table = FlowTable(records)
    rows = sorted(
        (
            flow.local_port,
            str(flow.remote),
            str(flow.protocol),
            flow.up_packets,
            flow.up_bytes,
            flow.down_packets,
            flow.down_bytes,
            repr(flow.first_time),
            repr(flow.last_time),
        )
        for flow in table
    )
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def compute_digests(platform: str, total_users: int, seed: int) -> dict:
    testbed, start, end = _run_testbed(platform, total_users, seed)
    digests = {}
    for station in testbed.stations:
        records = station.sniffer.records
        digests[f"{station.user_id}-records"] = _records_digest(records)
    u1_records = testbed.u1.sniffer.records
    digests["u1-series"] = _series_digest(u1_records, start, end)
    digests["u1-flows"] = _flows_digest(u1_records)
    digests["u1-record-count"] = len(u1_records)
    return digests


def _key(platform: str, total_users: int, seed: int) -> str:
    return f"{platform}/{total_users}users/seed{seed}"


@pytest.fixture(scope="module")
def golden() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.skip("golden_traces.json missing — regenerate it first")
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("platform", PLATFORM_NAMES)
@pytest.mark.parametrize("total_users,seed", CONFIGS)
def test_trace_matches_golden(golden, platform, total_users, seed):
    key = _key(platform, total_users, seed)
    assert key in golden, f"no golden entry for {key} — regenerate golden_traces.json"
    assert compute_digests(platform, total_users, seed) == golden[key]


def regenerate() -> None:
    goldens = {}
    for platform in PLATFORM_NAMES:
        for total_users, seed in CONFIGS:
            key = _key(platform, total_users, seed)
            goldens[key] = compute_digests(platform, total_users, seed)
            print(f"{key}: {goldens[key]['u1-record-count']} records")
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("refusing to regenerate without --regen")
    regenerate()
