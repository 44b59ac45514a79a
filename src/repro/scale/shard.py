"""Shard thousands of fluid rooms across campaign workers.

One fluid room costs microseconds, but a metaverse-scale scenario runs
10^4-10^5 of them; this module partitions the room index space into
shards, executes each shard as a :class:`~repro.runner.plan.TaskSpec`
on the :mod:`repro.runner` process pool, and merges the per-shard
binned series into one ThroughputSeries-compatible aggregate.

Determinism is per *room*, not per shard: room ``i`` always derives its
RNG from ``derive_seed(seed, "room:i")``, so the merged result is
byte-identical no matter how many shards or workers executed it.
"""

from __future__ import annotations

import dataclasses
import math
import time
import typing

import numpy as np

from ..capture.timeseries import ThroughputSeries
from ..obs.context import active_collector, obs_of  # noqa: F401  (obs_of re-exported for shard workers)
from ..platforms.profiles import get_profile
from ..qoe.cohort import cohort_weights, mean_mos_per_bin
from ..simcore import derive_seed
from .aggregate import ARCHITECTURES
from .fluid import (
    PiecewiseConstant,
    bin_rows,
    churn_occupancy,
    integrate_rows,
    occupancy_rates_bps,
)


@dataclasses.dataclass(frozen=True)
class ScaleScenario:
    """A metaverse-scale what-if, in picklable form."""

    platform: str = "vrchat"
    architecture: str = "forwarding"
    users_per_room: int = 20
    duration_s: float = 300.0
    bin_s: float = 5.0
    churn: bool = True
    churn_interval_s: float = 15.0
    churn_probability: float = 0.5
    viewport_factor: typing.Union[float, str, None] = "uniform"

    def __post_init__(self) -> None:
        if self.architecture not in ARCHITECTURES:
            raise ValueError(
                f"unknown architecture {self.architecture!r}; "
                f"choose from {ARCHITECTURES}"
            )
        if self.users_per_room < 1:
            raise ValueError("users_per_room must be >= 1")
        for name in ("duration_s", "bin_s", "churn_interval_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        get_profile(self.platform)  # KeyError naming the known platforms


def simulate_shard(
    scenario: typing.Union[ScaleScenario, dict],
    first_room: int,
    n_rooms: int,
    seed: int = 0,
) -> dict:
    """Simulate rooms ``[first_room, first_room + n_rooms)`` and return
    a picklable partial aggregate.

    Module-level and dict-in/dict-out so the campaign executor can ship
    it to a worker by reference.  Room RNGs depend only on ``seed`` and
    the absolute room index (never on the shard boundaries).

    The rooms run as one array pass: a ``(rooms, segments)`` occupancy
    matrix on the churn grid every room shares, each distinct occupancy
    mapped once to its rates and cohort weights, every row binned
    through one overlap table, and rows added in room order.  Each
    room's numbers are the IEEE operations its own step functions would
    perform, so the totals are bit for bit a per-room loop's.
    """
    import random

    if isinstance(scenario, tuple):
        # The campaign planner canonicalizes dict kwargs into sorted
        # (name, value) pair tuples; thaw them back.
        scenario = dict(scenario)
    if isinstance(scenario, dict):
        scenario = ScaleScenario(**scenario)
    if n_rooms < 1:
        raise ValueError("n_rooms must be >= 1")
    started = time.perf_counter()
    duration_s = scenario.duration_s
    if scenario.churn:
        occupancies = [
            churn_occupancy(
                random.Random(derive_seed(seed, f"room:{room}")),
                scenario.users_per_room,
                duration_s,
                churn_interval_s=scenario.churn_interval_s,
                churn_probability=scenario.churn_probability,
            )
            for room in range(first_room, first_room + n_rooms)
        ]
    else:
        constant = float(scenario.users_per_room)
        occupancies = [PiecewiseConstant.constant(constant, 0.0, duration_s)] * n_rooms
    # Churn breakpoints depend only on the horizon and the interval, so
    # every room shares the first room's grid; a room that does not
    # would need binning of its own.
    grid = occupancies[0].times
    for room, occupancy in enumerate(occupancies, first_room):
        if occupancy.times != grid:
            raise ValueError(f"room {room}'s churn grid differs from the shard's")
    users = np.array([occupancy.values for occupancy in occupancies])
    # Each distinct occupancy is looked up once; rows index into it.
    levels, level_of = np.unique(users, return_inverse=True)
    level_of = level_of.reshape(users.shape)
    rates = np.array(
        [
            occupancy_rates_bps(
                scenario.platform, k, scenario.architecture, scenario.viewport_factor
            )
            for k in levels.tolist()
        ]
    )[level_of]
    weights = np.array(
        [cohort_weights(scenario.platform, k) for k in levels.tolist()]
    )[level_of]
    egress, viewer = rates[..., 0], rates[..., 1]
    mos_weighted, below = weights[..., 0], weights[..., 1]

    def binned(rows: np.ndarray) -> np.ndarray:
        return bin_rows(grid, rows, 0.0, duration_s, scenario.bin_s)

    # QoE accumulates in integer micro-user-seconds: int64 addition is
    # exact and associative, so the merged totals are byte-identical no
    # matter how rooms are grouped into shards (float bin values are
    # not: summation order changes the low bits).
    mos_micro_us = np.rint(binned(mos_weighted) * 1e6).astype(np.int64).sum(axis=0)
    micro_us = np.rint(binned(users) * 1e6).astype(np.int64).sum(axis=0)
    qoe_below_micro_us = sum(
        int(round(x * 1e6)) for x in integrate_rows(grid, below).tolist()
    )
    return {
        "first_room": first_room,
        "n_rooms": n_rooms,
        "egress_bits_per_bin": _sum_in_room_order(binned(egress)).tolist(),
        "viewer_bits_per_bin": _sum_in_room_order(binned(viewer)).tolist(),
        "mos_micro_user_seconds_per_bin": mos_micro_us.tolist(),
        "micro_user_seconds_per_bin": micro_us.tolist(),
        "qoe_below_micro_user_seconds": qoe_below_micro_us,
        "user_seconds": float(_sum_in_room_order(integrate_rows(grid, users))),
        "peak_room_egress_bps": max(0.0, float(egress.max())),
        "peak_occupancy": int(users.max()),
        "wall_time_s": time.perf_counter() - started,
    }


def _sum_in_room_order(rows: np.ndarray) -> np.ndarray:
    """``0.0 + rows[0] + rows[1] + ...``, added left to right.

    The order a per-room loop adds rooms in: ``np.sum`` pairs rows up
    along a contiguous axis, which moves the low bits of float totals.
    """
    zero = np.zeros((1,) + rows.shape[1:])
    return np.add.accumulate(np.concatenate([zero, rows]), axis=0)[-1]


@dataclasses.dataclass
class ScaleResult:
    """Merged outcome of a sharded metaverse-scale run."""

    scenario: ScaleScenario
    n_rooms: int
    seed: int
    shards: int
    egress_series: ThroughputSeries  # aggregate server egress, all rooms
    viewer_series: ThroughputSeries  # mean per-room viewer downlink basis
    user_seconds: float
    peak_room_egress_bps: float
    peak_occupancy: int
    wall_time_s: float
    shard_wall_time_s: float
    #: Cohort QoE: per-bin MOS-weighted user-seconds and user-seconds
    #: (occupancy-weighted mean MOS per bin = their ratio).
    mos_user_seconds_per_bin: np.ndarray = dataclasses.field(
        default_factory=lambda: np.zeros(0)
    )
    user_seconds_per_bin: np.ndarray = dataclasses.field(
        default_factory=lambda: np.zeros(0)
    )
    #: User-seconds spent at occupancies scoring below the degraded
    #: threshold, summed over all rooms.
    qoe_below_user_seconds: float = 0.0

    @property
    def total_users(self) -> int:
        return self.n_rooms * self.scenario.users_per_room

    @property
    def mean_concurrent_users(self) -> float:
        return self.user_seconds / self.scenario.duration_s

    @property
    def mean_egress_gbps(self) -> float:
        return float(self.egress_series.bps.mean()) / 1e9

    @property
    def peak_egress_gbps(self) -> float:
        return float(self.egress_series.bps.max()) / 1e9

    @property
    def mos_per_bin(self) -> np.ndarray:
        """Occupancy-weighted mean MOS per bin across all rooms."""
        return mean_mos_per_bin(
            self.mos_user_seconds_per_bin, self.user_seconds_per_bin
        )

    @property
    def mean_mos(self) -> float:
        """User-second-weighted mean MOS over the whole run."""
        total = float(np.sum(self.user_seconds_per_bin))
        if total <= 0:
            return 0.0
        return float(np.sum(self.mos_user_seconds_per_bin)) / total

    @property
    def worst_bin_mos(self) -> float:
        """Lowest occupied-bin mean MOS (0.0 when nothing was occupied)."""
        mos = self.mos_per_bin
        occupied = mos[np.asarray(self.user_seconds_per_bin) > 0]
        return float(occupied.min()) if occupied.size else 0.0

    @property
    def qoe_degraded_user_hours(self) -> float:
        return self.qoe_below_user_seconds / 3600.0


def shard_ranges(n_rooms: int, shards: int) -> typing.List[typing.Tuple[int, int]]:
    """Contiguous ``(first_room, count)`` partitions covering all rooms."""
    if n_rooms < 1:
        raise ValueError("n_rooms must be >= 1")
    shards = max(1, min(shards, n_rooms))
    base, extra = divmod(n_rooms, shards)
    ranges = []
    first = 0
    for index in range(shards):
        count = base + (1 if index < extra else 0)
        ranges.append((first, count))
        first += count
    return ranges


def run_sharded(
    scenario: ScaleScenario,
    n_rooms: int,
    *,
    seed: int = 0,
    shards: typing.Optional[int] = None,
    parallel: typing.Optional[bool] = None,
    max_workers: typing.Optional[int] = None,
) -> ScaleResult:
    """Fan ``n_rooms`` fluid rooms out over the campaign executor.

    ``parallel=None`` auto-disables the process pool inside campaign
    workers (no nested pools) and under an active obs collector (whose
    registries are process-local).
    """
    import multiprocessing
    import os

    from ..runner import TaskSpec, run_campaign

    started = time.perf_counter()
    if shards is None:
        shards = min(4 * (os.cpu_count() or 4), max(1, n_rooms // 50) or 1)
    ranges = shard_ranges(n_rooms, shards)
    if parallel is None:
        parallel = (
            len(ranges) > 1
            and multiprocessing.parent_process() is None
            and active_collector() is None
        )
    scenario_dict = dataclasses.asdict(scenario)
    specs = [
        TaskSpec.create(
            simulate_shard,
            {"scenario": scenario_dict, "first_room": first, "n_rooms": count},
            seed=seed,
        )
        for first, count in ranges
    ]
    campaign = run_campaign(
        specs,
        parallel=parallel,
        max_workers=max_workers,
        max_retries=0,
        use_cache=False,
        cache_dir=None,
    )
    if campaign.failures:
        failure = campaign.failures[0]
        raise RuntimeError(
            f"scale shard {failure.spec.task_id} failed: {failure.error}"
        )
    partials = campaign.values()
    # Merge in room order (shard ranges are emitted in room order, and
    # campaign results come back in plan order).
    n_bins = int(math.ceil(scenario.duration_s / scenario.bin_s))
    egress_bits = np.zeros(n_bins)
    viewer_bits = np.zeros(n_bins)
    mos_micro_us = np.zeros(n_bins, dtype=np.int64)
    micro_us = np.zeros(n_bins, dtype=np.int64)
    qoe_below_micro_us = 0
    user_seconds = 0.0
    peak_room = 0.0
    peak_occupancy = 0
    shard_wall = 0.0
    for partial in partials:
        egress_bits += np.asarray(partial["egress_bits_per_bin"])
        viewer_bits += np.asarray(partial["viewer_bits_per_bin"])
        mos_micro_us += np.asarray(
            partial["mos_micro_user_seconds_per_bin"], dtype=np.int64
        )
        micro_us += np.asarray(
            partial["micro_user_seconds_per_bin"], dtype=np.int64
        )
        qoe_below_micro_us += partial["qoe_below_micro_user_seconds"]
        user_seconds += partial["user_seconds"]
        peak_room = max(peak_room, partial["peak_room_egress_bps"])
        peak_occupancy = max(peak_occupancy, partial["peak_occupancy"])
        shard_wall += partial["wall_time_s"]
    times = (np.arange(n_bins) + 0.5) * scenario.bin_s
    result = ScaleResult(
        scenario=scenario,
        n_rooms=n_rooms,
        seed=seed,
        shards=len(ranges),
        egress_series=ThroughputSeries(times, egress_bits, scenario.bin_s),
        viewer_series=ThroughputSeries(
            times, viewer_bits / max(1, n_rooms), scenario.bin_s
        ),
        user_seconds=user_seconds,
        peak_room_egress_bps=peak_room,
        peak_occupancy=peak_occupancy,
        wall_time_s=time.perf_counter() - started,
        shard_wall_time_s=shard_wall,
        mos_user_seconds_per_bin=mos_micro_us / 1e6,
        user_seconds_per_bin=micro_us / 1e6,
        qoe_below_user_seconds=qoe_below_micro_us / 1e6,
    )
    collector = active_collector()
    if collector is not None:
        obs = collector.new_observability()
        obs.registry.counter("scale.rooms_simulated").inc(n_rooms)
        obs.registry.counter("scale.user_seconds").inc(user_seconds)
        obs.registry.counter("scale.egress_bits").inc(float(egress_bits.sum()))
        obs.tracer.emit(
            "scale",
            scenario=scenario.platform,
            architecture=scenario.architecture,
            rooms=n_rooms,
            shards=len(ranges),
            wall_s=round(result.wall_time_s, 3),
        )
    return result


def metaverse_scale_experiment(
    platform: str = "vrchat",
    rooms: int = 1000,
    users_per_room: int = 20,
    duration_s: float = 120.0,
    architecture: str = "forwarding",
    seed: int = 0,
) -> dict:
    """Registry/campaign entry point: fluid fan-out + capacity plan.

    Returns a picklable summary so it can run as a campaign task.
    """
    from .capacity import plan_capacity

    scenario = ScaleScenario(
        platform=platform,
        architecture=architecture,
        users_per_room=users_per_room,
        duration_s=duration_s,
    )
    result = run_sharded(scenario, rooms, seed=seed, parallel=None)
    return {
        "platform": platform,
        "architecture": architecture,
        "rooms": rooms,
        "total_users": result.total_users,
        "mean_concurrent_users": result.mean_concurrent_users,
        "mean_egress_gbps": result.mean_egress_gbps,
        "peak_egress_gbps": result.peak_egress_gbps,
        "mean_mos": round(result.mean_mos, 6),
        "worst_bin_mos": round(result.worst_bin_mos, 6),
        "qoe_degraded_user_hours": round(result.qoe_degraded_user_hours, 6),
        "wall_time_s": result.wall_time_s,
        "capacity": [
            {
                "architecture": plan.architecture,
                "servers": plan.servers,
                "gpu_servers": plan.gpu_servers,
                "egress_gbps": plan.egress_gbps,
                "usd_per_ccu_hour": plan.usd_per_ccu_hour,
            }
            for plan in plan_capacity(
                platform, result.total_users, users_per_room=users_per_room
            )
        ],
    }
