"""Unit tests for the repro.scale fluid engine, planner, and sharding."""

from __future__ import annotations

import collections
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cli import main
from repro.qoe import DEGRADED_THRESHOLD, cohort_score
from repro.scale import (
    ARCHITECTURES,
    PiecewiseConstant,
    ScaleScenario,
    capacity_table,
    churn_occupancy,
    fluid_queue,
    metaverse_scale_experiment,
    plan_capacity,
    room_model,
    run_sharded,
    shard_ranges,
    simulate_room,
    simulate_shard,
)
from repro.simcore import derive_seed


# ----------------------------------------------------------------------
# PiecewiseConstant
# ----------------------------------------------------------------------
def test_piecewise_validation():
    with pytest.raises(ValueError):
        PiecewiseConstant([0.0, 1.0], [1.0, 2.0])  # length mismatch
    with pytest.raises(ValueError):
        PiecewiseConstant([0.0, 1.0, 1.0], [1.0, 2.0])  # not ascending
    for times in ([0.0, math.nan], [math.nan, 1.0]):
        with pytest.raises(ValueError, match="ascending"):
            PiecewiseConstant(times, [1.0])
    f = PiecewiseConstant([0.0, 10.0], [1.0])
    for bin_s in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="bin_s"):
            f.bins(0.0, 10.0, bin_s)


def test_piecewise_evaluation_and_integral():
    f = PiecewiseConstant([0.0, 10.0, 20.0], [5.0, 2.0])
    assert f.at(-1.0) == 0.0  # outside domain
    assert f.at(0.0) == 5.0
    assert f.at(9.999) == 5.0
    assert f.at(10.0) == 2.0  # right-open boundaries
    assert f.at(20.0) == 0.0
    assert f.integral() == pytest.approx(5.0 * 10 + 2.0 * 10)
    assert f.integral(5.0, 15.0) == pytest.approx(5.0 * 5 + 2.0 * 5)
    assert f.mean() == pytest.approx(3.5)
    assert f.peak() == 5.0


def test_piecewise_map_add_bins():
    f = PiecewiseConstant([0.0, 10.0], [3.0])
    g = PiecewiseConstant([5.0, 15.0], [1.0])
    h = f + g
    assert h.at(2.0) == 3.0
    assert h.at(7.0) == 4.0
    assert h.at(12.0) == 1.0
    assert h.integral() == pytest.approx(f.integral() + g.integral())
    doubled = f.map(lambda v: v * 2)
    assert doubled.integral() == pytest.approx(60.0)
    bins = f.bins(0.0, 10.0, 2.5)
    assert len(bins) == 4
    assert np.allclose(bins, 7.5)
    series = f.scaled(8.0).to_series(0.0, 10.0, 1.0)
    assert series.bps.mean() == pytest.approx(24.0)


def _reference_integral(f, a, b):
    """``PiecewiseConstant.integral`` as a plain loop over every segment."""
    a = max(a, f.start)
    b = min(b, f.end)
    if b <= a:
        return 0.0
    total = 0.0
    for t0, t1, value in zip(f.times, f.times[1:], f.values):
        lo = max(t0, a)
        hi = min(t1, b)
        if hi > lo:
            total += value * (hi - lo)
    return total


def _reference_bins(f, start, end, bin_s):
    """``PiecewiseConstant.bins`` as one reference integral per bin."""
    n_bins = int(math.ceil((end - start) / bin_s))
    out = np.zeros(n_bins)
    for index in range(n_bins):
        lo = start + index * bin_s
        hi = min(end, lo + bin_s)
        out[index] = _reference_integral(f, lo, hi)
    return out


_step_values = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(min_value=-1e6, max_value=1e6),
    ),
    min_size=7,
    max_size=7,
)


@settings(max_examples=300, deadline=None)
@example(  # one bin over three segments whose sum depends on its order
    times=[0.0, 1.0, 2.0, 3.0],
    values=[1.0, 1e16, -1e16, 0.0, 0.0, 0.0, 0.0],
    other_values=[-0.0] * 7,
    start=0.0,
    span=3.0,
    bin_s=3.0,
)
@given(
    times=st.lists(
        st.floats(min_value=-100.0, max_value=100.0),
        min_size=2,
        max_size=8,
        unique=True,
    ),
    values=_step_values,
    other_values=_step_values,
    start=st.floats(min_value=-150.0, max_value=150.0),
    span=st.floats(min_value=1e-3, max_value=100.0),
    bin_s=st.floats(min_value=0.5, max_value=50.0),
)
def test_bins_match_per_bin_integrals_bit_for_bit(
    times, values, other_values, start, span, bin_s
):
    """Binning reuses one overlap table per grid; every bin must still
    be the exact float sum a per-bin integral makes, for any values on
    the same breakpoints, grids off the breakpoints, and bins partly or
    wholly outside the domain."""
    times = sorted(times)
    n = len(times) - 1
    end = start + span
    for vals in (values[:n], other_values[:n]):  # second one hits the table
        f = PiecewiseConstant(times, vals)
        expected = _reference_bins(f, start, end, bin_s)
        assert f.bins(start, end, bin_s).tobytes() == expected.tobytes()
        assert repr(f.integral(start, end)) == repr(
            _reference_integral(f, start, end)
        )
        assert repr(f.integral()) == repr(_reference_integral(f, f.start, f.end))


# ----------------------------------------------------------------------
# fluid_queue
# ----------------------------------------------------------------------
def test_fluid_queue_pass_through():
    arrival = PiecewiseConstant([0.0, 10.0], [4.0])
    result = fluid_queue(arrival, capacity_units_per_s=10.0)
    assert result.served_units == pytest.approx(arrival.integral())
    assert result.dropped_units == 0.0
    assert result.max_backlog == 0.0


def test_fluid_queue_conservation_with_residual_backlog():
    # Burst above capacity: backlog builds, then drains, and whatever is
    # left at the horizon is neither served nor dropped.
    arrival = PiecewiseConstant([0.0, 10.0, 20.0, 30.0], [5.0, 20.0, 5.0])
    result = fluid_queue(arrival, capacity_units_per_s=10.0)
    residual = result.backlog_values[-1]
    assert result.offered_units == pytest.approx(
        result.served_units + result.dropped_units + residual
    )
    assert result.max_backlog == pytest.approx(100.0)  # (20-10) * 10 s
    assert result.max_delay_s(10.0) == pytest.approx(10.0)
    # The served function never exceeds capacity.
    assert max(result.served.values) <= 10.0 + 1e-9


def test_fluid_queue_bounded_buffer_drops():
    arrival = PiecewiseConstant([0.0, 10.0], [20.0])
    result = fluid_queue(arrival, capacity_units_per_s=10.0, buffer_units=25.0)
    # Buffer fills after 2.5 s; the remaining 7.5 s drop 10 units/s.
    assert result.max_backlog == pytest.approx(25.0)
    assert result.dropped_units == pytest.approx(75.0)
    assert 0.0 < result.loss_fraction < 1.0
    with pytest.raises(ValueError):
        fluid_queue(arrival, capacity_units_per_s=-1.0)


# ----------------------------------------------------------------------
# churn occupancy
# ----------------------------------------------------------------------
def test_churn_occupancy_bounds_and_determinism():
    target = 20
    occ1 = churn_occupancy(random.Random(7), target, 600.0)
    occ2 = churn_occupancy(random.Random(7), target, 600.0)
    assert occ1.times == occ2.times and occ1.values == occ2.values
    assert occ1.values[0] == float(target)
    assert min(occ1.values) >= 3.0
    assert max(occ1.values) <= float(target + 3)
    with pytest.raises(ValueError):
        churn_occupancy(random.Random(0), 0, 60.0)


# ----------------------------------------------------------------------
# room model + fluid room
# ----------------------------------------------------------------------
def test_room_model_validation():
    with pytest.raises(ValueError):
        room_model("vrchat", 5, "broadcast")
    with pytest.raises(ValueError):
        room_model("vrchat", 0)


def test_room_model_architectures_differ():
    n = 20
    forwarding = room_model("vrchat", n, "forwarding")
    p2p = room_model("vrchat", n, "p2p")
    interest = room_model("vrchat", n, "interest")
    remote = room_model("vrchat", n, "remote-rendering")
    # P2P moves the fan-out to the uplink and off the infrastructure.
    assert p2p.server_updates_per_s == 0.0
    assert p2p.user_up_mbps > forwarding.user_up_mbps
    assert p2p.server_egress_mbps < forwarding.server_egress_mbps
    # Interest scoping cuts the downlink below plain forwarding.
    assert interest.user_down_mbps < forwarding.user_down_mbps
    # Remote rendering is constant per user regardless of room size.
    assert remote.channel("video", "down").payload_kbps == pytest.approx(
        room_model("vrchat", 2, "remote-rendering")
        .channel("video", "down")
        .payload_kbps
    )


def test_simulate_room_matches_closed_form():
    n, duration = 12, 100.0
    model = room_model("vrchat", n, "forwarding", viewport_factor="uniform")
    result = simulate_room("vrchat", n, duration)
    assert result.user_seconds == pytest.approx(n * duration)
    assert result.egress_bits == pytest.approx(
        model.server_egress_bytes_per_s * 8.0 * duration
    )
    assert result.peak_egress_bps == pytest.approx(
        model.server_egress_bytes_per_s * 8.0
    )


def test_simulate_room_access_shaping_conserves_bits():
    n, duration = 15, 60.0
    unshaped = simulate_room("worlds", n, duration)
    cap = unshaped.viewer_down_bps.peak() * 0.5
    shaped = simulate_room("worlds", n, duration, access_capacity_bps=cap)
    assert shaped.viewer_down_bps.peak() <= cap + 1e-6
    residual = (
        unshaped.viewer_down_bps.integral()
        - shaped.viewer_down_bps.integral()
        - shaped.dropped_bits
    )
    assert residual >= -1e-6  # backlog at horizon, never negative


# ----------------------------------------------------------------------
# capacity planner
# ----------------------------------------------------------------------
def test_capacity_planner_orders_architectures():
    plans = {p.architecture: p for p in plan_capacity("vrchat", 1_000_000)}
    assert set(plans) == set(ARCHITECTURES)
    assert plans["p2p"].usd_per_ccu_hour < plans["interest"].usd_per_ccu_hour
    assert (
        plans["interest"].usd_per_ccu_hour < plans["forwarding"].usd_per_ccu_hour
    )
    assert (
        plans["forwarding"].usd_per_ccu_hour
        < plans["remote-rendering"].usd_per_ccu_hour
    )
    assert plans["remote-rendering"].gpu_servers > 0
    assert plans["forwarding"].servers > plans["p2p"].servers
    table = capacity_table(list(plans.values()))
    for architecture in ARCHITECTURES:
        assert architecture in table
    with pytest.raises(ValueError):
        plan_capacity("vrchat", 0)


# ----------------------------------------------------------------------
# sharding
# ----------------------------------------------------------------------
def test_shard_ranges_partition():
    ranges = shard_ranges(103, 10)
    assert sum(count for _, count in ranges) == 103
    firsts = [first for first, _ in ranges]
    assert firsts == sorted(firsts)
    # Contiguous, no gaps.
    position = 0
    for first, count in ranges:
        assert first == position
        position += count
    assert shard_ranges(3, 10) == [(0, 1), (1, 1), (2, 1)]
    with pytest.raises(ValueError):
        shard_ranges(0, 4)


def test_scale_scenario_validation():
    with pytest.raises(ValueError):
        ScaleScenario(architecture="broadcast")
    with pytest.raises(ValueError):
        ScaleScenario(users_per_room=0)
    with pytest.raises(ValueError):
        ScaleScenario(duration_s=0.0)
    for name, value in (
        ("duration_s", math.nan),
        ("duration_s", math.inf),
        ("bin_s", math.inf),
        ("churn_interval_s", 0.0),
    ):
        with pytest.raises(ValueError, match=name):
            ScaleScenario(**{name: value})
    with pytest.raises(KeyError, match="nosuch"):
        ScaleScenario(platform="nosuch")
    # A non-positive interval never advances the churn clock.
    with pytest.raises(ValueError, match="churn_interval_s"):
        churn_occupancy(random.Random(0), 20, 60.0, churn_interval_s=0.0)


def test_simulate_shard_thaws_canonicalized_scenario():
    # The campaign planner ships dict kwargs as sorted pair-tuples.
    scenario = ScaleScenario(users_per_room=5, duration_s=30.0, churn=False)
    import dataclasses

    frozen = tuple(sorted(dataclasses.asdict(scenario).items()))
    partial = simulate_shard(frozen, first_room=0, n_rooms=2, seed=0)
    assert partial["n_rooms"] == 2
    assert partial["user_seconds"] == {5 * 30.0: 2}  # two rooms of 150 user-seconds


def test_sharded_merge_is_shard_count_invariant():
    """Same seed => byte-identical merge, however the rooms are sharded."""
    scenario = ScaleScenario(users_per_room=8, duration_s=120.0)
    a = run_sharded(scenario, 60, seed=3, shards=3, parallel=False)
    b = run_sharded(scenario, 60, seed=3, shards=11, parallel=False)
    assert a.shards != b.shards
    assert np.array_equal(a.egress_series.bits_per_bin, b.egress_series.bits_per_bin)
    assert np.array_equal(a.viewer_series.bits_per_bin, b.viewer_series.bits_per_bin)
    assert a.user_seconds == b.user_seconds
    assert a.peak_occupancy == b.peak_occupancy
    # A different seed must actually change the churn realisation.
    c = run_sharded(scenario, 60, seed=4, shards=3, parallel=False)
    assert not np.array_equal(
        a.egress_series.bits_per_bin, c.egress_series.bits_per_bin
    )


#: SHA-256 of the fluid path's outputs (see the test below), computed
#: with one ``integral`` call per bin, the order ``_reference_bins`` keeps.
FLUID_GOLDEN_DIGEST = (
    "d1505b45f2e0c4c2a595a9ecadfecb2ca6573c438a7d032f2886bc1582cfb72a"
)


def test_fluid_outputs_match_golden_digest():
    """Sharded runs (churn and constant occupancy, two architectures,
    two seeds) and an off-grid fluid-queue output, bit for bit."""
    digest = hashlib.sha256()
    for kwargs, seed in (
        ({}, 0),
        ({}, 1),
        ({"architecture": "interest"}, 0),
        ({"churn": False}, 0),
    ):
        result = run_sharded(
            ScaleScenario(users_per_room=20, duration_s=300.0, **kwargs),
            200,
            seed=seed,
            parallel=False,
        )
        for array in (
            result.egress_series.bits_per_bin,
            result.viewer_series.bits_per_bin,
            result.mos_user_seconds_per_bin,
            result.user_seconds_per_bin,
        ):
            digest.update(np.asarray(array, dtype=float).tobytes())
        digest.update(
            repr(
                (
                    result.mean_mos,
                    result.user_seconds,
                    result.peak_room_egress_bps,
                    result.peak_occupancy,
                    result.qoe_below_user_seconds,
                )
            ).encode()
        )
    peak = simulate_room("worlds", 15, 60.0).viewer_down_bps.peak()
    shaped = simulate_room("worlds", 15, 60.0, access_capacity_bps=peak * 0.5)
    digest.update(shaped.viewer_down_bps.bins(0.0, 60.0, 1.0).tobytes())
    assert digest.hexdigest() == FLUID_GOLDEN_DIGEST


def _per_room_shard(scenario, first_room, n_rooms, seed):
    """The per-room loop ``simulate_shard`` replaced: each room's own
    step functions through ``simulate_room``, ``bins``/``integral`` and
    ``cohort_score``, with every total listed room by room (a per-bin
    total as one row of bins per room)."""
    duration_s, bin_s = scenario.duration_s, scenario.bin_s

    def binned(f):
        return f.bins(0.0, duration_s, bin_s).tolist()

    rooms = collections.defaultdict(list)
    peak_egress_bps = 0.0
    peak_occupancy = 0
    for room in range(first_room, first_room + n_rooms):
        rng = (
            random.Random(derive_seed(seed, f"room:{room}"))
            if scenario.churn
            else None
        )
        result = simulate_room(
            scenario.platform,
            scenario.users_per_room,
            duration_s,
            architecture=scenario.architecture,
            rng=rng,
            churn_interval_s=scenario.churn_interval_s,
            churn_probability=scenario.churn_probability,
            viewport_factor=scenario.viewport_factor,
        )
        rooms["egress_bits_per_bin"].append(binned(result.egress_bps))
        rooms["viewer_bits_per_bin"].append(binned(result.viewer_down_bps))
        rooms["user_seconds"].append(result.user_seconds)
        peak_egress_bps = max(peak_egress_bps, result.peak_egress_bps)
        peak_occupancy = max(peak_occupancy, int(max(result.occupancy.values)))
        offered = result.viewer_down_bps.integral() + result.dropped_bits
        loss = result.dropped_bits / offered if offered > 0 else 0.0

        def score(k, platform=result.platform, loss=loss):
            return cohort_score(platform, int(round(k)), loss)

        weighted = result.occupancy.map(lambda k: k * score(k))
        below = result.occupancy.map(
            lambda k: k if (k > 0 and score(k) < DEGRADED_THRESHOLD) else 0.0
        )
        rooms["mos_user_seconds_per_bin"].append(binned(weighted))
        rooms["user_seconds_per_bin"].append(binned(result.occupancy))
        rooms["qoe_below_user_seconds"].append(below.integral())
    return rooms, peak_egress_bps, peak_occupancy


def _tally(values):
    """Each distinct value with how many rooms have it, ascending."""
    return dict(sorted(collections.Counter(values).items()))


#: ``simulate_shard``'s totals given per bin; the others are per run.
_PER_BIN = (
    "egress_bits_per_bin",
    "viewer_bits_per_bin",
    "mos_user_seconds_per_bin",
    "user_seconds_per_bin",
)


#: Horizons, bins and churn intervals: a whole number of bins and churn
#: steps, and two horizons that are a multiple of neither.
_SHARD_CLOCKS = (
    {"duration_s": 60.0},
    {"duration_s": 47.3, "bin_s": 4.0},
    {"duration_s": 31.0, "bin_s": 2.5, "churn_interval_s": 7.0},
)


@pytest.mark.parametrize("architecture", ARCHITECTURES)
@pytest.mark.parametrize(
    "platform", ["vrchat", "altspacevr", "recroom", "hubs", "worlds"]
)
def test_simulate_shard_matches_the_per_room_loop_bit_for_bit(platform, architecture):
    """Every returned field but the wall time, over viewport factors,
    churn on and off, off-grid horizons and 1-room to odd-sized shards:
    each total's tally holds exactly the per-room loop's room values."""
    index = ARCHITECTURES.index(architecture)
    for case, (viewport_factor, churn, (first_room, n_rooms)) in enumerate(
        (
            ("uniform", True, (0, 37)),
            (None, False, (5, 1)),
            (0.37, True, (11, 9)),
            ("uniform", False, (2, 13)),
        )
    ):
        scenario = ScaleScenario(
            platform=platform,
            architecture=architecture,
            users_per_room=3 + 4 * case,
            churn=churn,
            viewport_factor=viewport_factor,
            **_SHARD_CLOCKS[(index + case) % len(_SHARD_CLOCKS)],
        )
        seed = index + case
        partial = simulate_shard(scenario, first_room, n_rooms, seed=seed)
        assert partial.pop("wall_time_s") >= 0.0
        rooms, peak_egress_bps, peak_occupancy = _per_room_shard(
            scenario, first_room, n_rooms, seed
        )
        expected = {
            "first_room": first_room,
            "n_rooms": n_rooms,
            **{key: [_tally(column) for column in zip(*rooms[key])] for key in _PER_BIN},
            "qoe_below_user_seconds": _tally(rooms["qoe_below_user_seconds"]),
            "user_seconds": _tally(rooms["user_seconds"]),
            "peak_room_egress_bps": peak_egress_bps,
            "peak_occupancy": peak_occupancy,
        }
        assert repr(partial) == repr(expected), (scenario, first_room, n_rooms)


@settings(max_examples=25, deadline=None)
@example(  # the horizon at which float sums of bin totals depend on grouping
    duration_s=47.3, bin_s=5.0, churn_interval_s=15.0, n_rooms=60, shard_counts=(3, 11)
)
@given(
    duration_s=st.floats(1.0, 90.0),
    bin_s=st.floats(0.5, 20.0),
    churn_interval_s=st.floats(1.0, 30.0),
    n_rooms=st.integers(1, 60),
    shard_counts=st.tuples(st.integers(1, 60), st.integers(1, 60)),
)
def test_sharded_totals_are_the_exact_room_sums_at_any_shard_count(
    duration_s, bin_s, churn_interval_s, n_rooms, shard_counts
):
    """Float totals are the correctly rounded sum of the rooms' values
    (``math.fsum``) and QoE totals the sum of their micro-units, so the
    shard count cannot move a bit of either."""
    scenario = ScaleScenario(
        users_per_room=8,
        duration_s=duration_s,
        bin_s=bin_s,
        churn_interval_s=churn_interval_s,
    )
    rooms, _, _ = _per_room_shard(scenario, 0, n_rooms, seed=3)

    def micro(values):
        return sum(round(value * 1e6) for value in values) / 1e6

    expected = (
        [math.fsum(column) for column in zip(*rooms["egress_bits_per_bin"])],
        [math.fsum(column) / n_rooms for column in zip(*rooms["viewer_bits_per_bin"])],
        [micro(column) for column in zip(*rooms["mos_user_seconds_per_bin"])],
        [micro(column) for column in zip(*rooms["user_seconds_per_bin"])],
        micro(rooms["qoe_below_user_seconds"]),
        math.fsum(rooms["user_seconds"]),
    )
    for shards in shard_counts:
        result = run_sharded(scenario, n_rooms, seed=3, shards=shards, parallel=False)
        merged = (
            result.egress_series.bits_per_bin.tolist(),
            result.viewer_series.bits_per_bin.tolist(),
            result.mos_user_seconds_per_bin.tolist(),
            result.user_seconds_per_bin.tolist(),
            result.qoe_below_user_seconds,
            result.user_seconds,
        )
        assert repr(merged) == repr(expected), shards


def test_simulate_shard_rejects_a_room_off_the_shared_grid(monkeypatch):
    from repro.scale import shard

    def uneven(rng, target_users, duration_s, **_):
        split = rng.uniform(1.0, duration_s - 1.0)
        return PiecewiseConstant([0.0, split, duration_s], [target_users] * 2)

    monkeypatch.setattr(shard, "churn_occupancy", uneven)
    with pytest.raises(ValueError, match="room 1's churn grid differs"):
        simulate_shard(ScaleScenario(duration_s=30.0), 0, 2)
    with pytest.raises(ValueError, match="n_rooms must be >= 1"):
        simulate_shard(ScaleScenario(), 0, 0)


def test_metaverse_scale_experiment_summary():
    out = metaverse_scale_experiment(
        rooms=10, users_per_room=6, duration_s=30.0
    )
    assert out["total_users"] == 60
    assert out["mean_concurrent_users"] > 0
    assert {p["architecture"] for p in out["capacity"]} == set(ARCHITECTURES)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_scale_smoke(capsys):
    assert (
        main(
            [
                "scale",
                "--rooms",
                "20",
                "--users-per-room",
                "10",
                "--duration",
                "30",
                "--serial",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "200 users" in out
    assert "Capacity plan" in out
    for architecture in ARCHITECTURES:
        assert architecture in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--rooms", "0"], "n_rooms must be >= 1"),
        (["--users-per-room", "0"], "users_per_room must be >= 1"),
        (["--bin", "0"], "bin_s must be finite and positive"),
        (["--duration", "nan"], "duration_s must be finite and positive"),
        (["--duration", "inf"], "duration_s must be finite and positive"),
        (["--platform", "nosuch"], "unknown platform 'nosuch'"),
    ],
)
def test_cli_scale_rejects_bad_input(capsys, argv, message):
    # No --serial: a bad input must fail before any shard pool starts.
    assert main(["scale", *argv]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err
