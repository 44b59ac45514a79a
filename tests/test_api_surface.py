"""Smoke tests for the high-level API wrappers (one per paper artifact).

Full-strength runs of each experiment live in the dedicated integration
test modules; these exercise the public entry points with reduced
parameters so regressions in the wiring surface quickly.
"""

import pytest

from repro.core import api
from repro.measure.latency import measure_latency
from repro.measure.scalability import run_user_sweep
from repro.measure.session import Testbed


def test_all_platforms_constant():
    assert set(api.ALL_PLATFORMS) == {
        "altspacevr",
        "recroom",
        "vrchat",
        "hubs",
        "worlds",
    }


def test_table2_wrapper_subset():
    reports = api.table2_infrastructure(platforms=("vrchat",))
    assert set(reports) == {"vrchat"}
    assert reports["vrchat"].control.protocol == "HTTPS"


def test_table3_wrapper_subset():
    rows = api.table3_throughput(platforms=("recroom",))
    assert rows["recroom"].up_kbps.mean == pytest.approx(41.7, rel=0.15)


def test_table4_wrapper_subset():
    rows = api.table4_latency(platforms=("recroom",), n_actions=8)
    assert rows["recroom"].e2e.mean == pytest.approx(101.7, rel=0.2)


def test_fig2_wrapper():
    timelines = api.fig2_channel_timelines(platforms=("vrchat",))
    assert timelines["vrchat"].event_join_at == 90.0
    assert len(timelines["vrchat"].times_s) == 180


def test_fig3_wrapper():
    evidence = api.fig3_forwarding(platforms=("recroom",))
    assert evidence["recroom"].corr > 0.5


def test_fig6_wrapper_includes_exp2():
    timelines = api.fig6_join_timelines(platforms=("altspacevr",))
    assert set(timelines) == {"altspacevr", "altspacevr-exp2"}


def test_fig6_wrapper_can_skip_exp2():
    timelines = api.fig6_join_timelines(
        platforms=("vrchat",), include_altspace_exp2=False
    )
    assert set(timelines) == {"vrchat"}


def test_fig7_wrapper_small():
    sweeps = api.fig7_fig8_user_sweep(platforms=("vrchat",), user_counts=(1, 3))
    assert [p.n_users for p in sweeps["vrchat"]] == [1, 3]


def test_fig9_wrapper_small():
    points = api.fig9_hubs_large_scale(user_counts=(15, 18))
    assert points[1].down_kbps.mean > points[0].down_kbps.mean


def test_fig11_wrapper_small():
    results = api.fig11_latency_scaling(
        platforms=("recroom",), user_counts=(2, 4)
    )
    series = results["recroom"]
    assert series[1].e2e.mean > series[0].e2e.mean


def test_fig12_wrapper():
    run = api.fig12_downlink_disruption()
    assert run.scenario == "downlink-bandwidth"
    assert run.stages[-1].label == "N"


def test_fig13_wrapper():
    bandwidth_run, tcp_run = api.fig13_uplink_disruption()
    assert bandwidth_run.scenario == "uplink-bandwidth"
    assert tcp_run.udp_dead


def test_viewport_wrapper():
    detection = api.viewport_width_experiment()
    assert detection.platform == "altspacevr"


def test_qoe_wrapper_small():
    results = api.latency_loss_qoe(
        platforms=("recroom",),
        latency_stages_ms=(50,),
        loss_stages=(0.05,),
    )
    assessments = results["recroom"]
    assert len(assessments) == 2
    kinds = {(a.added_latency_ms, a.loss_rate) for a in assessments}
    assert kinds == {(50.0, 0.0), (0.0, 0.05)}


def test_table1_wrapper():
    assert len(api.table1_features()) == 5


@pytest.mark.parametrize(
    "call, names",
    [
        (lambda: measure_latency("vrchat", n_users=1), "n_users"),
        (lambda: measure_latency("vrchat", n_actions=0), "n_actions"),
        (lambda: run_user_sweep("vrchat", user_counts=(0,)), "user_counts"),
        (lambda: api.run_two_user_session("vrchat", duration_s=0), "duration_s"),
    ],
    ids=["latency-one-user", "latency-no-actions", "sweep-zero-users", "session-zero-s"],
)
def test_out_of_range_sizes_are_rejected_before_any_testbed(call, names, monkeypatch):
    def no_testbed(*args, **kwargs):
        raise AssertionError("a testbed was built for out-of-range sizes")

    monkeypatch.setattr(Testbed, "__init__", no_testbed)
    with pytest.raises(ValueError, match=names):
        call()
