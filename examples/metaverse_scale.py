#!/usr/bin/env python3
"""What does a million-user metaverse cost? (Sec. 7, quantified)

The packet engine answers the paper's questions at 2-28 users; this
example uses the fluid engine (``repro.scale``, cross-validated against
the packet engine to within 5% per channel) to fan the same
calibration out to 50,000 churning rooms — one million concurrent
VRChat users — and then prices the four candidate architectures.

It also shows hybrid fidelity: one packet-level observed station inside
a full VRChat instance (80 users, the platform's room cap) whose 79
crowd peers inject their avatar updates at the server.

Run:
    python examples/metaverse_scale.py
"""

from repro.capture.timeseries import average_kbps
from repro.capture.sniffer import DOWNLINK
from repro.measure.session import Testbed
from repro.scale import (
    ScaleScenario,
    capacity_table,
    plan_capacity,
    run_sharded,
)

TARGET_USERS = 1_000_000
USERS_PER_ROOM = 20


def main() -> None:
    rooms = TARGET_USERS // USERS_PER_ROOM

    # 1. Fluid fan-out: every room churns like a Sec. 6.2 public event.
    scenario = ScaleScenario(
        platform="vrchat", users_per_room=USERS_PER_ROOM, duration_s=300.0
    )
    result = run_sharded(scenario, rooms, seed=0)
    print(
        f"{rooms:,} rooms x {USERS_PER_ROOM} users "
        f"({result.total_users:,} users) simulated in "
        f"{result.wall_time_s:.1f} s across {result.shards} shards"
    )
    print(
        f"  mean concurrent users: {result.mean_concurrent_users:,.0f}\n"
        f"  aggregate server egress: {result.mean_egress_gbps:.1f} Gbps mean, "
        f"{result.peak_egress_gbps:.1f} Gbps peak\n"
    )

    # 2. Price the architectures at that population.
    print(f"Capacity plan for {TARGET_USERS:,} concurrent users (vrchat):")
    print(capacity_table(plan_capacity("vrchat", TARGET_USERS, USERS_PER_ROOM)))

    # 3. Hybrid fidelity: a packet-level observer inside a full
    #    instance (VRChat caps rooms at 80).
    testbed = Testbed("vrchat", n_users=1, seed=0)
    testbed.start_all(join_at=2.0, sample_metrics=False)
    testbed.add_peers(79, join_times=[2.0] * 79)
    testbed.run(until=60.0)
    down = average_kbps(
        [r for r in testbed.u1.sniffer.records if r.direction == DOWNLINK],
        20.0,
        60.0,
    )
    print(
        f"\nHybrid check: observed station inside a full 80-user room "
        f"downloads {down / 1000:.1f} Mbps (packet-level, crowd peers)"
    )


if __name__ == "__main__":
    main()
