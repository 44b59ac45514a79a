"""Tests for the campaign runner: determinism, caching, fault handling.

The stub experiments live at module level so worker processes can
unpickle them by reference, and cross-attempt state (for the flaky
stub) lives in files so it survives process boundaries.
"""

import os
import pickle
import time

import pytest

from repro.measure.experiment import register_experiment, unregister_experiment
from repro.runner import (
    CampaignPlan,
    ResultCache,
    TaskSpec,
    TelemetryWriter,
    run_campaign,
)


# ----------------------------------------------------------------------
# Stub experiments (registered by the fixture below)
# ----------------------------------------------------------------------
def sleepy_stub(seed=0, sleep_s=0.05, scale=1.0):
    """Deterministic value after a GIL-free wait — parallelism shows
    up as wall-time even on a single busy core."""
    time.sleep(sleep_s)
    return {"seed": seed, "value": scale * (3.0 * seed + 1.0)}


def flaky_stub(state_dir, seed=0, fail_times=1):
    """Fails the first ``fail_times`` attempts per seed, then succeeds.
    Attempt counts are files so retries work across worker processes."""
    marker = os.path.join(state_dir, f"flaky-{seed}.attempts")
    attempts = 1
    if os.path.exists(marker):
        with open(marker) as handle:
            attempts = int(handle.read()) + 1
    with open(marker, "w") as handle:
        handle.write(str(attempts))
    if attempts <= fail_times:
        raise RuntimeError(f"transient failure {attempts}/{fail_times}")
    return {"seed": seed, "attempts": attempts}


def crashy_stub(seed=0):
    """Kills its worker process outright (segfault stand-in)."""
    os._exit(17)


def hanging_stub(seed=0, hang_s=30.0):
    time.sleep(hang_s)
    return seed


def unit_cell_stub(state_dir, seed=0, fail_times=1):
    """One member of a shared unit, as it reads alone."""
    return {"seed": seed}


def unit_key_stub(arguments):
    return arguments["state_dir"], arguments["seed"]


def flaky_unit_runner(members):
    """Fails the first ``fail_times`` attempts of a unit, then returns
    each member's value and the unit's size."""
    arguments = members[0][1]
    marker = os.path.join(arguments["state_dir"], "unit.attempts")
    attempts = 1
    if os.path.exists(marker):
        with open(marker) as handle:
            attempts = int(handle.read()) + 1
    with open(marker, "w") as handle:
        handle.write(str(attempts))
    if attempts <= arguments["fail_times"]:
        raise RuntimeError(f"unit failure {attempts}")
    return [dict(unit_cell_stub(**a), unit_size=len(members)) for _, a in members]


STUBS = {
    "stub-sleep": sleepy_stub,
    "stub-flaky": flaky_stub,
    "stub-crash": crashy_stub,
    "stub-hang": hanging_stub,
}


@pytest.fixture(autouse=True)
def _register_stubs():
    for name, runner in STUBS.items():
        register_experiment(name, runner, artifact="test", replace=True)
    yield
    for name in STUBS:
        unregister_experiment(name)


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def test_plan_expands_matrix_and_filters_params():
    plan = CampaignPlan.from_matrix(
        ["stub-sleep"],
        grid={"scale": [1.0, 2.0], "sleep_s": [0.0, 0.01]},
        seeds=range(3),
    )
    assert len(plan) == 2 * 2 * 3
    # 'features' takes neither a seed nor the grid axis: one task total,
    # with seed=None, instead of 12.
    mixed = CampaignPlan.from_matrix(
        ["features", "stub-sleep"], grid={"scale": [1.0, 2.0]}, seeds=range(3)
    )
    features = [t for t in mixed if t.experiment == "features"]
    assert len(features) == 1 and features[0].seed is None
    assert len([t for t in mixed if t.experiment == "stub-sleep"]) == 6


def test_plan_rejects_unknown_experiment_and_empty_seeds():
    with pytest.raises(KeyError):
        CampaignPlan.from_matrix(["nope"])
    with pytest.raises(ValueError):
        CampaignPlan.from_matrix(["stub-sleep"], seeds=[])


def test_plan_rejects_params_no_experiment_accepts():
    """A key every listed experiment ignores is an error, not a run on
    defaults; one that some experiment accepts still expands."""
    with pytest.raises(ValueError, match="grid axis 'scael'"):
        CampaignPlan.from_matrix(["stub-sleep"], grid={"scael": [1.0]})
    with pytest.raises(ValueError, match="base_kwargs key 'retired_knob'"):
        CampaignPlan.from_matrix(
            ["features", "stub-sleep"], base_kwargs={"retired_knob": 2}
        )
    plan = CampaignPlan.from_matrix(
        ["features", "stub-sleep"], base_kwargs={"scale": 2.0}
    )
    assert [dict(t.kwargs) for t in plan] == [{}, {"scale": 2.0}]


def test_task_identity_is_canonical():
    a = TaskSpec.create("stub-sleep", {"scale": 2.0, "sleep_s": 0.0}, seed=1)
    b = TaskSpec.create("stub-sleep", {"sleep_s": 0.0, "scale": 2.0}, seed=1)
    assert a == b
    assert a.cache_key() == b.cache_key()
    # list vs tuple spell the same grid point
    c = TaskSpec.create("throughput", {"platforms": ["vrchat"]}, seed=0)
    d = TaskSpec.create("throughput", {"platforms": ("vrchat",)}, seed=0)
    assert c.cache_key() == d.cache_key()
    assert a.cache_key() != TaskSpec.create(
        "stub-sleep", {"scale": 3.0, "sleep_s": 0.0}, seed=1
    ).cache_key()


# ----------------------------------------------------------------------
# Determinism: parallel == serial
# ----------------------------------------------------------------------
def test_parallel_matches_serial_on_registry_experiments():
    """Two real registry experiments: per-seed results are identical
    whether run in-process or across worker processes."""
    plan = CampaignPlan.from_matrix(
        ["throughput", "forwarding"],
        grid={"platforms": [("vrchat",)]},
        seeds=range(3),
    )
    serial = run_campaign(plan, parallel=False, cache_dir=None)
    parallel = run_campaign(plan, max_workers=4, cache_dir=None)
    assert serial.ok and parallel.ok
    for s, p in zip(serial, parallel):
        assert s.spec == p.spec
        assert s.value == p.value
        assert repr(s.value) == repr(p.value)


def test_campaign_acceptance_20_tasks():
    """The acceptance bar: >= 20 tasks at max_workers=4 are bit-identical
    to serial, measurably faster, and a re-run is 100% cache."""
    plan = CampaignPlan.from_matrix(
        ["stub-sleep"], grid={"sleep_s": [0.12]}, seeds=range(20)
    )
    assert len(plan) == 20

    t0 = time.perf_counter()
    serial = run_campaign(plan, parallel=False, cache_dir=None)
    serial_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_campaign(plan, max_workers=4, cache_dir=None)
    parallel_wall = time.perf_counter() - t0

    for s, p in zip(serial, parallel):
        assert pickle.dumps(s.value) == pickle.dumps(p.value)
    assert parallel_wall < serial_wall * 0.75, (
        f"parallel {parallel_wall:.2f}s vs serial {serial_wall:.2f}s"
    )


def test_second_invocation_is_pure_cache(tmp_path):
    plan = CampaignPlan.from_matrix(
        ["stub-sleep"], grid={"sleep_s": [0.0]}, seeds=range(20)
    )
    cache_dir = str(tmp_path / "cache")
    first = run_campaign(plan, max_workers=4, cache_dir=cache_dir)
    assert first.summary.executed == 20 and first.summary.cache_hits == 0

    telemetry = TelemetryWriter()
    second = run_campaign(
        plan, max_workers=4, cache_dir=cache_dir, telemetry=telemetry
    )
    assert second.summary.executed == 0
    assert second.summary.cache_hits == 20
    assert telemetry.count("task_start") == 0, "a cached re-run must execute nothing"
    assert telemetry.count("cache_hit") == 20
    assert [r.value for r in second] == [r.value for r in first]


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
def test_cache_partial_resume_runs_only_the_delta(tmp_path):
    cache_dir = str(tmp_path / "cache")
    small = CampaignPlan.from_matrix(
        ["stub-sleep"], grid={"sleep_s": [0.0]}, seeds=range(5)
    )
    run_campaign(small, parallel=False, cache_dir=cache_dir)
    grown = CampaignPlan.from_matrix(
        ["stub-sleep"], grid={"sleep_s": [0.0]}, seeds=range(10)
    )
    resumed = run_campaign(grown, parallel=False, cache_dir=cache_dir)
    assert resumed.summary.cache_hits == 5
    assert resumed.summary.executed == 5
    # changing a parameter misses: different content address
    rescaled = CampaignPlan.from_matrix(
        ["stub-sleep"], grid={"sleep_s": [0.0], "scale": [7.0]}, seeds=range(5)
    )
    fresh = run_campaign(rescaled, parallel=False, cache_dir=cache_dir)
    assert fresh.summary.executed == 5


def test_no_cache_escape_hatch(tmp_path):
    cache_dir = str(tmp_path / "cache")
    plan = CampaignPlan.from_matrix(
        ["stub-sleep"], grid={"sleep_s": [0.0]}, seeds=range(3)
    )
    run_campaign(plan, parallel=False, cache_dir=cache_dir)
    uncached = run_campaign(
        plan, parallel=False, cache_dir=cache_dir, use_cache=False
    )
    assert uncached.summary.executed == 3 and uncached.summary.cache_hits == 0


def test_result_cache_roundtrip_and_corruption(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    task = TaskSpec.create("stub-sleep", {"sleep_s": 0.0}, seed=3)
    assert not cache.contains(task)
    assert cache.lookup(task) == (False, None)
    cache.put(task, {"answer": 42}, wall_time_s=0.1)
    assert cache.contains(task)
    assert cache.get(task) == {"answer": 42}
    assert len(cache) == 1
    # torn entries behave as misses, not errors
    with open(cache.path_for(task), "wb") as handle:
        handle.write(b"not a pickle")
    hit, _ = cache.lookup(task)
    assert not hit
    cache.invalidate(task)
    assert not cache.contains(task)


# ----------------------------------------------------------------------
# Fault handling
# ----------------------------------------------------------------------
def test_retry_then_succeed(tmp_path):
    plan = CampaignPlan.from_matrix(
        ["stub-flaky"],
        grid={"state_dir": [str(tmp_path)], "fail_times": [1]},
        seeds=range(3),
    )
    telemetry = TelemetryWriter()
    campaign = run_campaign(
        plan, max_workers=2, max_retries=2, backoff_s=0.01,
        cache_dir=None, telemetry=telemetry,
    )
    assert campaign.ok
    assert all(r.attempts == 2 for r in campaign)
    assert campaign.summary.retries == 3
    assert telemetry.count("task_retry") == 3
    assert telemetry.count("task_fail") == 0


def test_retries_exhausted_marks_failure_without_aborting(tmp_path):
    plan = CampaignPlan.from_matrix(
        ["stub-flaky"],
        grid={"state_dir": [str(tmp_path)], "fail_times": [5]},
        seeds=[0],
    )
    campaign = run_campaign(
        plan, max_workers=2, max_retries=1, backoff_s=0.01, cache_dir=None
    )
    assert not campaign.ok
    assert campaign.summary.failed == 1
    assert "transient failure" in campaign.failures[0].error


def test_worker_crash_does_not_kill_the_campaign():
    tasks = [TaskSpec.create("stub-crash", {}, seed=0)] + [
        TaskSpec.create("stub-sleep", {"sleep_s": 0.05}, seed=s) for s in range(4)
    ]
    telemetry = TelemetryWriter()
    campaign = run_campaign(
        tasks, max_workers=2, max_retries=2, backoff_s=0.01,
        cache_dir=None, telemetry=telemetry,
    )
    by_experiment = {}
    for result in campaign:
        by_experiment.setdefault(result.spec.experiment, []).append(result)
    assert all(r.ok for r in by_experiment["stub-sleep"])
    crash = by_experiment["stub-crash"][0]
    assert not crash.ok
    assert "worker-crash" in crash.error
    assert campaign.summary.failed == 1
    assert campaign.summary.succeeded == 4


def test_per_task_timeout_reclaims_the_worker():
    tasks = [TaskSpec.create("stub-hang", {"hang_s": 30.0}, seed=0)] + [
        TaskSpec.create("stub-sleep", {"sleep_s": 0.02}, seed=s) for s in range(2)
    ]
    telemetry = TelemetryWriter()
    t0 = time.perf_counter()
    campaign = run_campaign(
        tasks, max_workers=2, timeout_s=0.4, max_retries=0,
        cache_dir=None, telemetry=telemetry,
    )
    wall = time.perf_counter() - t0
    assert wall < 10.0, "timeout must not wait for the hung task"
    hang = campaign.task_results[0]
    assert not hang.ok and "timeout" in hang.error
    assert all(r.ok for r in campaign.task_results[1:])
    fails = telemetry.select("task_fail")
    assert any("timeout" in event["reason"] for event in fails)


def test_a_parallel_run_leaves_no_pool_thread_behind():
    """``run`` joins its pool's manager thread before it returns; one
    still closing its wakeup pipe races interpreter exit."""
    import threading

    def managers():
        return {
            thread
            for thread in threading.enumerate()
            if type(thread).__name__ == "_ExecutorManagerThread"
        }

    before = managers()
    tasks = [TaskSpec.create("stub-sleep", {"sleep_s": 0.0}, seed=s) for s in range(4)]
    campaign = run_campaign(tasks, max_workers=2, cache_dir=None)
    assert campaign.ok
    assert not managers() - before


@pytest.fixture
def _unit_stubs():
    from repro.measure.experiment import ExperimentSpec, registry

    names = ("stub-unit-a", "stub-unit-b")
    for name in names:
        registry()[name] = ExperimentSpec(
            name, "test", "", unit_cell_stub,
            unit_key=unit_key_stub, unit_runner=flaky_unit_runner,
        )
    yield names
    for name in names:
        unregister_experiment(name)


@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "workers2"])
def test_a_unit_is_retried_and_failed_as_one(_unit_stubs, tmp_path, parallel):
    def unit(state_dir, fail_times):
        os.makedirs(state_dir)
        return [
            TaskSpec.create(name, {"state_dir": state_dir, "fail_times": fail_times}, seed=0)
            for name in _unit_stubs
        ]

    options = dict(
        parallel=parallel, max_workers=2, max_retries=1, backoff_s=0.01, cache_dir=None
    )
    tasks = unit(str(tmp_path / "flaky"), fail_times=1)
    telemetry = TelemetryWriter()
    campaign = run_campaign(tasks, telemetry=telemetry, **options)
    assert campaign.ok
    assert campaign.values() == [{"seed": 0, "unit_size": 2}] * 2
    assert [r.attempts for r in campaign] == [2, 2]
    assert sorted(e["task"] for e in telemetry.select("task_retry")) == sorted(
        task.task_id for task in tasks
    )
    assert campaign.summary.retries == 2
    assert telemetry.count("task_start") == 4

    campaign = run_campaign(unit(str(tmp_path / "broken"), fail_times=5), **options)
    assert [r.status for r in campaign] == ["failed", "failed"]
    assert all("unit failure 2" in r.error for r in campaign)


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
def test_telemetry_jsonl_stream(tmp_path):
    import json

    path = str(tmp_path / "events.jsonl")
    plan = CampaignPlan.from_matrix(
        ["stub-sleep"], grid={"sleep_s": [0.0]}, seeds=range(3)
    )
    campaign = run_campaign(
        plan, max_workers=2, cache_dir=None, telemetry_path=path
    )
    assert campaign.ok
    with open(path) as handle:
        events = [json.loads(line) for line in handle]
    assert events[0]["event"] == "campaign_start"
    assert events[-1]["event"] == "campaign_end"
    assert events[-1]["succeeded"] == 3
    kinds = {event["event"] for event in events}
    assert {"task_start", "task_end"} <= kinds
    ends = [e for e in events if e["event"] == "task_end"]
    assert all("worker_pid" in e and e["wall_time_s"] >= 0.0 for e in ends)


def test_summary_accounting_and_speedup():
    plan = CampaignPlan.from_matrix(
        ["stub-sleep"], grid={"sleep_s": [0.05]}, seeds=range(4)
    )
    campaign = run_campaign(plan, max_workers=4, cache_dir=None)
    summary = campaign.summary
    assert summary.n_tasks == 4
    assert summary.succeeded == 4 and summary.ok
    assert summary.task_time_s >= 4 * 0.05
    assert summary.speedup > 1.0
    assert "succeeded" in summary.render() or "tasks" in summary.render()
