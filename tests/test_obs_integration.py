"""End-to-end observability: collectors, instrumentation, snapshots,
campaign metrics dumps, and the no-interference guarantee.

The stub experiment lives at module level so serial campaign execution
can pickle it by reference if needed.
"""

import collections
import json
import os

import pytest

from repro.measure.experiment import register_experiment, unregister_experiment
from repro.measure.session import Testbed, download_drain_s
from repro.obs import (
    NULL_OBS,
    Observability,
    PeriodicSnapshotter,
    collect,
    obs_of,
)
from repro.runner import CampaignPlan, run_campaign
from repro.simcore import Simulator


# ----------------------------------------------------------------------
# Collector wiring
# ----------------------------------------------------------------------
def test_simulator_defaults_to_null_obs():
    sim = Simulator(seed=1)
    assert sim.obs is NULL_OBS
    assert not sim.obs.enabled
    assert obs_of(sim) is NULL_OBS


def test_obs_of_handles_stub_sims():
    class Stub:
        pass

    assert obs_of(Stub()) is NULL_OBS


def test_explicit_obs_is_bound_to_the_simulator():
    obs = Observability()
    sim = Simulator(seed=1, obs=obs)
    assert sim.obs is obs
    assert obs.tracer.sim is sim


def test_collect_enables_every_simulator_in_block():
    with collect() as collector:
        first = Simulator(seed=1)
        second = Simulator(seed=2)
    outside = Simulator(seed=3)
    assert first.obs.enabled and second.obs.enabled
    assert first.obs is not second.obs
    assert outside.obs is NULL_OBS
    assert len(collector.observabilities) == 2


def test_collectors_nest_and_restore():
    with collect() as outer:
        with collect() as inner:
            Simulator(seed=1)
        Simulator(seed=2)
    assert len(inner.observabilities) == 1
    assert len(outer.observabilities) == 1


# ----------------------------------------------------------------------
# Kernel instrumentation
# ----------------------------------------------------------------------
def test_kernel_counts_dispatched_events():
    with collect() as collector:
        sim = Simulator(seed=1)
        for index in range(5):
            sim.schedule(0.1 * (index + 1), lambda: None)
        sim.run()
    registry = collector.observabilities[0].registry
    assert registry.value("sim.events_dispatched") == 5
    assert registry.value("sim.heap_depth") == 0
    assert registry.value("sim.now") == pytest.approx(0.5)


def test_kernel_counts_cancelled_events():
    with collect() as collector:
        sim = Simulator(seed=1)
        sim.schedule(1.0, lambda: None)
        event = sim.schedule(2.0, lambda: None)
        event.cancel()
        sim.run()
    registry = collector.observabilities[0].registry
    assert registry.value("sim.events_dispatched") == 1
    assert registry.value("sim.events_cancelled") == 1


def test_metrics_only_collection_keeps_the_kernel_counters():
    """``collect(trace=False)``: the kernel's counters and gauges, added
    per run()/step() call, without the trace or the callback profile."""
    with collect(trace=False) as collector:
        sim = Simulator(seed=1)
        for index in range(4):
            sim.schedule(0.1 * (index + 1), lambda: None)
        sim.schedule(0.05, lambda: None).cancel()
        assert sim.step() is True
        sim.run(until=0.35)
        assert sim.step() is True
    (obs,) = collector.observabilities
    registry = obs.registry
    assert registry.value("sim.events_dispatched") == 4
    assert registry.value("sim.events_cancelled") == 1
    assert registry.value("sim.heap_depth") == 0
    assert registry.value("sim.now") == pytest.approx(0.4)
    assert registry.histograms() == []
    assert obs.dump()["trace"]["events"] == []


def test_kernel_dispatch_spans_and_profile():
    with collect() as collector:
        sim = Simulator(seed=1)
        sim.schedule(1.0, lambda: None)
        sim.run()
    tracer = collector.observabilities[0].tracer
    spans = tracer.select("span")
    assert len(spans) == 1
    assert spans[0]["name"] == "kernel.dispatch"
    assert spans[0]["wall_s"] >= 0.0
    profile = tracer.span_profile()
    assert profile and profile[0]["count"] == 1


def test_kernel_wall_time_histogram_per_callback():
    with collect() as collector:
        sim = Simulator(seed=1)
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
    registry = collector.observabilities[0].registry
    (hist,) = registry.histograms()
    assert hist.name == "sim.callback_wall_s"
    assert hist.count == 2


# ----------------------------------------------------------------------
# A full session: network, platform, server, device instrumentation
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def session_dump():
    with collect() as collector:
        testbed = Testbed("vrchat", n_users=2, seed=7)
        testbed.start_all(join_at=2.0)
        end = 2.0 + 10.0 + download_drain_s(testbed.profile) + 5.0
        testbed.run(until=end)
    return collector.observabilities[0]


def test_session_has_per_channel_byte_counters(session_dump):
    registry = session_dump.registry
    tx = [
        c for c in registry.counters()
        if c.name == "platform.client.tx_bytes" and c.value > 0
    ]
    channels = {dict(c.labels)["channel"] for c in tx}
    assert "avatar" in channels and "session" in channels
    rx = registry.total("platform.client.rx_bytes")
    assert rx > 0


def test_session_has_link_and_flow_metrics(session_dump):
    registry = session_dump.registry
    assert registry.total("net.flow.bytes") > 0
    link_gauges = [g for g in registry.gauges() if g.name == "net.link.backlog_bytes"]
    assert link_gauges
    assert registry.value("net.nodes") > 0
    assert registry.value("net.route_builds") >= 1


def test_session_has_server_forwarding_metrics(session_dump):
    registry = session_dump.registry
    assert registry.total("server.updates_received") > 0
    assert registry.total("server.updates_forwarded") > 0
    fanouts = [h for h in registry.histograms() if h.name == "server.fanout"]
    assert fanouts and fanouts[0].count > 0


def test_session_has_device_gauges(session_dump):
    registry = session_dump.registry
    fps = registry.value("device.fps", user="u1")
    assert fps is not None and fps > 0


def test_session_packet_hops_reassemble(session_dump):
    tracer = session_dump.tracer
    hops = tracer.select("hop")
    assert hops, "a session must record at least one packet hop"
    packet_id = hops[0]["packet"]
    journey = tracer.packet_trace(packet_id)
    kinds = [hop["hop"] for hop in journey]
    assert "enqueue" in kinds and "deliver" in kinds
    assert all("flow" in hop for hop in journey)


def test_session_dump_round_trips_through_json(session_dump):
    dump = json.loads(json.dumps(session_dump.dump(), default=str))
    assert dump["metrics"]["counters"]
    assert dump["trace"]["events"]


# ----------------------------------------------------------------------
# Periodic snapshots
# ----------------------------------------------------------------------
def test_snapshotter_samples_gauges_and_counters():
    with collect() as collector:
        sim = Simulator(seed=1)
        registry = collector.observabilities[0].registry
        counter = registry.counter("bytes")
        registry.gauge("depth", fn=lambda: 2.0)

        def sender():
            counter.inc(1000)
            sim.schedule(1.0, sender)

        sim.schedule(0.0, sender)
        snapshotter = PeriodicSnapshotter(sim, period_s=1.0)
        snapshotter.start()
        sim.run(until=5.5)
    times, values = snapshotter.series("bytes")
    assert times == [1.0, 2.0, 3.0, 4.0, 5.0]
    # The counter is cumulative and grows by 1000 bytes each second.
    diffs = [b - a for a, b in zip(values, values[1:])]
    assert diffs == [1000.0] * 4
    _, depths = snapshotter.series("depth")
    assert depths == [2.0] * 5


def test_snapshotter_as_throughput_series():
    with collect() as collector:
        sim = Simulator(seed=1)
        counter = collector.observabilities[0].registry.counter("bytes")

        def sender():
            counter.inc(125)  # 1000 bits per second
            sim.schedule(1.0, sender)

        sim.schedule(0.0, sender)
        snapshotter = PeriodicSnapshotter(sim, period_s=1.0)
        snapshotter.start()
        sim.run(until=4.5)
    series = snapshotter.as_throughput("bytes")
    assert series.bps == pytest.approx([1000.0, 1000.0, 1000.0])
    assert series.mean_kbps() == pytest.approx(1.0)


def test_snapshotter_noop_when_disabled():
    sim = Simulator(seed=1)
    snapshotter = PeriodicSnapshotter(sim, period_s=1.0)
    snapshotter.start()
    assert sim.pending_events() == 0  # nothing was ever scheduled
    sim.run(until=3.0)
    assert snapshotter.keys() == []


def test_snapshotter_rejects_nonpositive_or_nonfinite_periods():
    sim = Simulator(seed=1)
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            PeriodicSnapshotter(sim, period_s=bad)


def test_snapshotter_stop_before_start_and_double_start():
    with collect():
        sim = Simulator(seed=1)
        sim.obs.registry.gauge("g", fn=lambda: 1.0)
        snapshotter = PeriodicSnapshotter(sim, period_s=1.0)
        snapshotter.stop()  # stop before start is a no-op
        snapshotter.start()
        snapshotter.start()  # double start must not double-sample
        sim.run(until=2.5)
    times, values = snapshotter.series("g")
    assert times == [1.0, 2.0]
    assert values == [1.0, 1.0]


def test_snapshotter_dump_shape():
    with collect():
        sim = Simulator(seed=1)
        sim.obs.registry.gauge("g", fn=lambda: 1.0)
        snapshotter = PeriodicSnapshotter(sim, period_s=0.5)
        snapshotter.start()
        sim.run(until=1.6)
    dump = snapshotter.dump()
    assert dump["period_s"] == 0.5
    assert dump["series"]["g"]["times"] == [0.5, 1.0, 1.5]


# ----------------------------------------------------------------------
# Observation must not change results
# ----------------------------------------------------------------------
def _session_fingerprint():
    testbed = Testbed("vrchat", n_users=2, seed=11)
    testbed.start_all(join_at=2.0)
    testbed.run(until=15.0)
    records = testbed.u1.sniffer.records
    return (
        len(records),
        sum(r.size for r in records),
        [repr(r) for r in records[:50]],
        testbed.sim.now,
    )


def test_observed_run_is_byte_identical_to_unobserved():
    baseline = _session_fingerprint()
    with collect():
        observed = _session_fingerprint()
    assert observed == baseline


def _comparable(events):
    """Trace records without wall-clock times, with packet ids relative
    to the first one seen (ids come from a process-global counter)."""
    base = next(event["packet"] for event in events if "packet" in event)
    records = []
    for event in events:
        record = {key: value for key, value in event.items() if key != "wall_s"}
        if "packet" in record:
            record["packet"] -= base
        records.append(record)
    return records


def test_bounded_trace_is_an_exact_prefix_of_the_unbounded_one():
    from repro.core.api import run_two_user_session

    with collect() as unbounded:
        run_two_user_session("vrchat", duration_s=5.0, seed=3)
    with collect(max_trace_events=50) as bounded:
        run_two_user_session("vrchat", duration_s=5.0, seed=3)
    full = unbounded.merged_dump()
    cut = bounded.merged_dump()
    events = full["trace"]["events"]
    assert full["trace"]["dropped"] == 0
    assert len(events) > 50
    assert _comparable(cut["trace"]["events"]) == _comparable(events[:50])
    tail = collections.Counter(event["kind"] for event in events[50:])
    assert cut["trace"]["dropped"] == len(events) - 50
    assert cut["trace"]["dropped_by_kind"] == dict(sorted(tail.items()))
    assert cut["metrics"]["counters"] == full["metrics"]["counters"]


# ----------------------------------------------------------------------
# Campaign integration
# ----------------------------------------------------------------------
def tiny_sim_stub(seed=0):
    sim = Simulator(seed=seed)
    for index in range(10):
        sim.schedule(0.1 * (index + 1), lambda: None)
    sim.run()
    return sim.now


@pytest.fixture
def _register_tiny():
    register_experiment("obs-tiny", tiny_sim_stub, artifact="test", replace=True)
    yield
    unregister_experiment("obs-tiny")


def test_campaign_metrics_dir_writes_per_task_dumps(_register_tiny, tmp_path):
    metrics_dir = str(tmp_path / "metrics")
    plan = CampaignPlan.from_matrix(["obs-tiny"], seeds=range(2))
    campaign = run_campaign(
        plan, parallel=False, cache_dir=None, metrics_dir=metrics_dir
    )
    assert campaign.ok
    files = sorted(os.listdir(metrics_dir))
    dumps = [f for f in files if f not in ("index.json", "campaign_registry.json")]
    assert len(dumps) == 2
    assert "index.json" in files and "campaign_registry.json" in files
    for result, filename in zip(campaign, dumps):
        assert result.metrics is not None
        with open(os.path.join(metrics_dir, filename)) as handle:
            dump = json.load(handle)
        counters = {c["name"]: c["value"] for c in dump["metrics"]["counters"]}
        assert counters["sim.events_dispatched"] == 10
        assert dump["task_id"] == result.spec.task_id
        assert dump["registry"]["schema"] == 1
    with open(os.path.join(metrics_dir, "index.json")) as handle:
        index = json.load(handle)
    assert set(index["tasks"]) == {r.spec.task_id for r in campaign}
    for entry in index["tasks"].values():
        assert entry["dump"] in dumps
        assert entry["status"] == "ok"
    assert campaign.events[-1]["event"] == "campaign_end"
    assert all("campaign_id" in e for e in campaign.events)
    assert campaign.events[-1]["campaign_id"] == index["campaign_id"]
    task_metrics = [e for e in campaign.events if e["event"] == "task_metrics"]
    assert len(task_metrics) == 2
    assert task_metrics[0]["n_counters"] >= 1


def test_campaign_without_obs_has_no_metrics(_register_tiny):
    plan = CampaignPlan.from_matrix(["obs-tiny"], seeds=[0])
    campaign = run_campaign(plan, parallel=False, cache_dir=None)
    assert campaign.ok
    assert campaign.task_results[0].metrics is None


def test_campaign_cached_tasks_have_no_metrics(_register_tiny, tmp_path):
    cache_dir = str(tmp_path / "cache")
    plan = CampaignPlan.from_matrix(["obs-tiny"], seeds=[0])
    first = run_campaign(
        plan, parallel=False, cache_dir=cache_dir, collect_obs=True
    )
    assert first.task_results[0].metrics is not None
    second = run_campaign(
        plan, parallel=False, cache_dir=cache_dir, collect_obs=True
    )
    assert second.task_results[0].from_cache
    assert second.task_results[0].metrics is None
    # but the values agree
    assert second.task_results[0].value == first.task_results[0].value


def test_campaign_parallel_collects_metrics(_register_tiny):
    plan = CampaignPlan.from_matrix(["obs-tiny"], seeds=range(2))
    campaign = run_campaign(
        plan, parallel=True, max_workers=2, cache_dir=None, collect_obs=True
    )
    assert campaign.ok
    for result in campaign:
        counters = {
            c["name"]: c["value"]
            for c in result.metrics["metrics"]["counters"]
        }
        assert counters["sim.events_dispatched"] == 10
