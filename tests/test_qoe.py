"""Tests for repro.qoe: scoring model, SLO engine, probe, cells, cohort."""

import pickle

import numpy as np
import pytest

from repro.chaos import run_chaos_cell
from repro.cli import main
from repro.core.findings import QOE_FINDING_BASE
from repro.measure.experiment import get_experiment
from repro.measure.session import Testbed
from repro.obs import MetricsOnlyObservability, MetricsRegistry
from repro.qoe import (
    DEFAULT_MODEL,
    DEGRADED_THRESHOLD,
    PHASES,
    ChannelSignals,
    PiecewiseCurve,
    QoeProbe,
    SloSpec,
    WindowScore,
    classify_phase,
    cohort_score,
    evaluate_slo,
    mean_mos_per_bin,
    mos_label,
    percentile,
    phase_code,
    phase_from_code,
    run_qoe_campaign,
    run_qoe_cell,
)
from repro.scale import ScaleScenario, run_sharded


# ----------------------------------------------------------------- model


def test_curve_interpolates_and_clamps():
    curve = PiecewiseCurve([(0.0, 5.0), (10.0, 1.0)])
    assert curve.score(-3.0) == 5.0  # clamp below
    assert curve.score(0.0) == 5.0
    assert curve.score(5.0) == 3.0  # midpoint
    assert curve.score(10.0) == 1.0
    assert curve.score(99.0) == 1.0  # clamp above


def test_curve_direction_is_free():
    rising = PiecewiseCurve([(10.0, 1.0), (60.0, 5.0)])
    assert rising.score(35.0) == 3.0


def test_curve_rejects_bad_points():
    with pytest.raises(ValueError):
        PiecewiseCurve([(0.0, 5.0)])
    with pytest.raises(ValueError):
        PiecewiseCurve([(10.0, 1.0), (0.0, 5.0)])


def test_classify_phase_matrix():
    assert classify_phase("event", joining=True, active_remotes=0) == "world-switch"
    assert classify_phase("init", joining=False, active_remotes=0) == "lobby"
    assert classify_phase("welcome", joining=False, active_remotes=0) == "lobby"
    assert classify_phase("event", joining=False, active_remotes=3) == "steady"
    assert classify_phase("event", joining=False, active_remotes=8) == "dense-event"
    assert classify_phase("done", joining=False, active_remotes=0) == "exit"


def test_phase_codes_round_trip():
    for phase in PHASES:
        assert phase_from_code(float(phase_code(phase))) == phase
    with pytest.raises(ValueError):
        phase_code("warp")
    with pytest.raises(ValueError):
        phase_from_code(99.0)


def test_channel_scores_min_combine():
    # Perfect latency must not compensate for terrible loss.
    signals = ChannelSignals(motion_latency_ms=0.0, motion_loss=0.60)
    scores = DEFAULT_MODEL.channel_scores(signals)
    assert scores["motion"] == 1.0
    assert scores["voice"] is None  # channel inactive


def test_score_renormalizes_inactive_channels():
    # Only render active: the score IS the render curve's score.
    signals = ChannelSignals(render_fps=30.0)
    assert DEFAULT_MODEL.score(signals, "steady") == 3.0


def test_score_neutral_when_nothing_active():
    assert DEFAULT_MODEL.score(ChannelSignals(), "steady") == 5.0


def test_score_clamps_to_mos_range_and_rejects_unknown_phase():
    signals = ChannelSignals(motion_loss=1.0, render_fps=5.0)
    score = DEFAULT_MODEL.score(signals, "dense-event")
    assert 1.0 <= score <= 5.0
    with pytest.raises(ValueError):
        DEFAULT_MODEL.score(signals, "hypercube")


def test_mos_label_ladder():
    assert mos_label(4.9) == "excellent"
    assert mos_label(4.0) == "good"
    assert mos_label(3.0) == "fair"
    assert mos_label(2.0) == "poor"
    assert mos_label(1.0) == "bad"


# ------------------------------------------------------------------- slo


def test_slo_spec_parse_defaults_and_budget():
    spec = SloSpec.parse("p05>=3.0/60s")
    assert (spec.percentile, spec.target, spec.window_s) == (5.0, 3.0, 60.0)
    assert spec.budget_fraction == 0.05
    assert spec.name == "p05>=3.0/60s"
    custom = SloSpec.parse(" p50 >= 4.0 / 30s @ 0.01 ")
    assert custom.percentile == 50.0
    assert custom.budget_fraction == 0.01


@pytest.mark.parametrize(
    "text", ["", "p05>3.0/60s", "avg>=3/60s", "p05>=3.0", "p05>=3.0/60"]
)
def test_slo_spec_parse_rejects_garbage(text):
    with pytest.raises(ValueError):
        SloSpec.parse(text)


def test_slo_spec_validates_fields():
    with pytest.raises(ValueError):
        SloSpec("x", target=3.0, percentile=120.0, window_s=10.0)
    with pytest.raises(ValueError):
        SloSpec("x", target=3.0, percentile=5.0, window_s=0.0)
    with pytest.raises(ValueError):
        SloSpec("x", target=3.0, percentile=5.0, window_s=10.0, budget_fraction=0.0)


def test_percentile_nearest_rank():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 50.0) == 2.0
    assert percentile(values, 100.0) == 4.0
    assert percentile(values, 0.0) == 1.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def _window(t0, score, user="u1"):
    return WindowScore(user=user, t0=t0, t1=t0 + 2.0, phase="steady", score=score)


def test_evaluate_slo_empty_scores_is_vacuously_compliant():
    report = evaluate_slo(SloSpec.parse("p05>=3.0/10s"), [])
    assert report.compliant
    assert report.windows == () and report.breaches == ()


def test_evaluate_slo_coalesces_consecutive_breaches():
    spec = SloSpec.parse("p05>=3.0/10s")
    scores = []
    # Scores land in the eval window containing their END time (t0+2),
    # so bad t0 in [8, 28) fills exactly eval windows [10,20) and [20,30):
    # good, bad, bad, good.
    for t0 in np.arange(0.0, 40.0, 2.0):
        bad = 8.0 <= t0 < 28.0
        scores.append(_window(float(t0), 1.5 if bad else 4.5))
    report = evaluate_slo(spec, scores, t_start=0.0, t_end=40.0)
    assert not report.compliant
    assert len(report.breaches) == 1
    breach = report.breaches[0]
    assert (breach.t_start, breach.t_end) == (10.0, 30.0)
    assert breach.duration_s == 20.0
    assert breach.worst_score == 1.5
    assert report.total_breach_s == 20.0
    # All scores in a bad window are below target: burn = 1.0 / 0.05.
    assert report.worst_burn_rate == 20.0


def test_evaluate_slo_empty_eval_windows_are_compliant():
    spec = SloSpec.parse("p05>=3.0/10s")
    # One score at the start, one near the end; the middle window is empty.
    scores = [_window(0.0, 4.0), _window(24.0, 4.0)]
    report = evaluate_slo(spec, scores, t_start=0.0, t_end=30.0)
    assert len(report.windows) == 3
    assert report.windows[1].n_scores == 0
    assert report.windows[1].compliant
    assert report.compliant


def test_slo_report_finding_and_registry_export():
    spec = SloSpec.parse("p05>=3.0/10s")
    report = evaluate_slo(spec, [_window(0.0, 1.0)])
    finding = report.to_finding(index=3)
    assert finding.number == QOE_FINDING_BASE + 3
    assert not finding.passed
    registry = MetricsRegistry()
    report.into_registry(registry, platform="vrchat")
    assert registry.value(
        "qoe.slo_breach_seconds", platform="vrchat", slo=spec.name
    ) == pytest.approx(report.total_breach_s)
    assert (
        registry.value(
            "qoe.slo_windows_total",
            platform="vrchat",
            slo=spec.name,
            compliant="no",
        )
        == 1
    )


# ---------------------------------------------------------- probe + cells


def test_probe_scores_windows_for_every_user():
    testbed = Testbed("vrchat", n_users=2, seed=0, obs=MetricsOnlyObservability())
    testbed.start_all(join_at=2.0)
    probe = QoeProbe(testbed)
    probe.start()
    testbed.run(until=20.0)
    scores = probe.window_scores()
    assert scores, "probe produced no scored windows"
    assert {w.user for w in scores} == {"u1", "u2"}
    assert all(1.0 <= w.score <= 5.0 for w in scores)
    assert all(w.phase in PHASES for w in scores)
    summaries = probe.user_summaries()
    assert [s.user for s in summaries] == ["u1", "u2"]
    for summary in summaries:
        assert summary.worst_score <= summary.mean_score <= summary.best_score


def test_probe_is_noop_without_observability():
    testbed = Testbed("vrchat", n_users=2, seed=0)  # NULL_OBS
    testbed.start_all(join_at=2.0)
    probe = QoeProbe(testbed)
    assert not probe.enabled
    probe.start()
    testbed.run(until=12.0)
    assert probe.window_scores() == []


def _session_fingerprint(obs=None, with_probe=False):
    testbed = Testbed("vrchat", n_users=2, seed=11, obs=obs)
    testbed.start_all(join_at=2.0)
    if with_probe:
        probe = QoeProbe(testbed)
        probe.start()
    testbed.run(until=15.0)
    records = testbed.u1.sniffer.records
    return (
        len(records),
        sum(r.size for r in records),
        [repr(r) for r in records[:50]],
        testbed.sim.now,
    )


def test_qoe_collection_leaves_sim_output_byte_identical():
    """Acceptance: the probe is read-only — scoring a run must not
    change a single packet of it."""
    baseline = _session_fingerprint()
    probed = _session_fingerprint(
        obs=MetricsOnlyObservability(), with_probe=True
    )
    assert probed == baseline


def test_run_qoe_cell_shape():
    result = run_qoe_cell("vrchat", duration_s=10.0, seed=0)
    assert result.platform == "vrchat"
    assert result.scenario is None and result.intensity is None
    assert len(result.users) == 2
    assert result.windows
    assert 1.0 <= result.worst_score <= result.mean_score <= 5.0


def test_run_qoe_cell_under_fault_degrades_scores():
    calm = run_qoe_cell("vrchat", duration_s=10.0, seed=0)
    stormy = run_qoe_cell(
        "vrchat", duration_s=10.0, seed=0, scenario="loss-burst", intensity="severe"
    )
    assert stormy.scenario == "loss-burst" and stormy.intensity == "severe"
    assert stormy.worst_score < calm.worst_score


def test_chaos_verdict_carries_qoe_fields():
    verdict = run_chaos_cell("loss-burst", "vrchat", "severe", seed=0)
    assert verdict.qoe_worst_user_score is not None
    assert 1.0 <= verdict.qoe_worst_user_score <= 5.0
    assert verdict.qoe_users_below_threshold >= 0
    assert verdict.qoe_slo_breach_s >= 0.0
    assert "QoE worst user" in verdict.evidence


def test_chaos_and_qoe_cells_of_one_scenario_run_the_same_simulation():
    """A chaos cell and a qoe-score cell of one scenario build the same
    testbed, probe and fault, so they dispatch the same kernel events
    and end at the same sim time."""
    from repro.chaos import get_scenario
    from repro.obs import collect

    dispatched = []
    with collect(max_trace_events=0) as collector:
        verdict = run_chaos_cell("regional-outage", "altspacevr", "mild", seed=0)
    dispatched.append(collector.observabilities[0].registry.value("sim.events_dispatched"))
    with collect(max_trace_events=0) as collector:
        cell = run_qoe_cell(
            "altspacevr", seed=0, scenario="regional-outage", intensity="mild"
        )
    dispatched.append(collector.observabilities[0].registry.value("sim.events_dispatched"))
    assert dispatched == [25_496, 25_496]
    observe_s = get_scenario("regional-outage").observe_s
    assert cell.end_s == round(verdict.heal_at_s + observe_s, 6) == 63.0


def test_qoe_score_experiment_is_registered():
    spec = get_experiment("qoe-score")
    assert spec.runner is run_qoe_cell
    assert spec.default_kwargs == {"platform": "vrchat"}


@pytest.mark.slow
def test_qoe_results_are_byte_identical_across_runs_and_shard_counts():
    """Acceptance: same spec + seed -> byte-identical cell results."""
    first = run_qoe_cell("vrchat", duration_s=10.0, seed=1)
    second = run_qoe_cell("vrchat", duration_s=10.0, seed=1)
    assert pickle.dumps(first) == pickle.dumps(second)

    matrix = dict(
        platforms=["vrchat"],
        seeds=(0, 1),
        duration_s=10.0,
        cache_dir=None,
        use_cache=False,
    )
    serial = run_qoe_campaign(parallel=False, **matrix)
    sharded = run_qoe_campaign(parallel=True, max_workers=2, **matrix)
    assert serial.ok and sharded.ok
    assert [pickle.dumps(r) for r in serial.results] == [
        pickle.dumps(r) for r in sharded.results
    ]
    # Campaign results additionally carry plan-derived correlation ids;
    # strip them to compare cell content with the standalone run.
    import dataclasses

    unstamped = dataclasses.replace(
        serial.results[1], campaign_id="", task_id=""
    )
    assert pickle.dumps(second) == pickle.dumps(unstamped)
    assert serial.results[1].campaign_id.startswith("c")
    assert serial.results[1].task_id
    assert serial.results[1].campaign_id == sharded.results[1].campaign_id


# ---------------------------------------------------------------- cohort


def test_cohort_score_bounds_and_monotonicity():
    assert cohort_score("vrchat", 0) == 0.0
    solo = cohort_score("vrchat", 2)
    packed = cohort_score("vrchat", 30)
    assert 1.0 <= packed <= solo <= 5.0
    lossy = cohort_score("vrchat", 2, loss_fraction=0.5)
    assert lossy < solo


def test_mean_mos_per_bin_handles_empty_bins():
    mos = mean_mos_per_bin([8.0, 0.0], [2.0, 0.0])
    assert mos.tolist() == [4.0, 0.0]


def test_scale_cohort_qoe_is_shard_count_invariant():
    scenario = ScaleScenario(users_per_room=8, duration_s=120.0)
    a = run_sharded(scenario, 40, seed=3, shards=3, parallel=False)
    b = run_sharded(scenario, 40, seed=3, shards=7, parallel=False)
    assert np.array_equal(a.mos_user_seconds_per_bin, b.mos_user_seconds_per_bin)
    assert np.array_equal(a.user_seconds_per_bin, b.user_seconds_per_bin)
    assert a.qoe_below_user_seconds == b.qoe_below_user_seconds
    assert 1.0 <= a.mean_mos <= 5.0
    assert a.worst_bin_mos <= a.mean_mos
    assert a.qoe_degraded_user_hours >= 0.0


# ------------------------------------------------------------------- CLI


def test_qoe_cli_smoke(capsys):
    code = main(
        [
            "qoe",
            "--platforms",
            "vrchat",
            "--seeds",
            "1",
            "--serial",
            "--no-cache",
            "--duration",
            "6",
            "--slo",
            "p05>=2.0/10s",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "Mean MOS" in out
    assert "SLO cells compliant" in out


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--scenario", "meteor-strike"], "unknown chaos scenario 'meteor-strike'"),
        (
            ["--scenario", "link-flap", "--intensity", "mlid"],
            "scenario 'link-flap' has no intensity 'mlid'; choose from: mild, severe",
        ),
    ],
    ids=["scenario", "intensity"],
)
def test_qoe_cli_bad_scenario_or_intensity_is_usage_error(flags, message, capsys):
    argv = ["qoe", "--platforms", "vrchat", "--serial", "--no-cache", *flags]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "FAILED" not in captured.err  # rejected before any task ran


def test_qoe_cli_rejects_bad_slo(capsys):
    code = main(["qoe", "--platforms", "vrchat", "--slo", "not-an-slo"])
    assert code == 2
    assert "bad SLO spec" in capsys.readouterr().err


def test_degraded_threshold_is_on_the_mos_ladder():
    assert mos_label(DEGRADED_THRESHOLD) == "fair"
