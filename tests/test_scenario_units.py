"""Chaos and QoE cells that share a simulation run it once.

``chaos`` and ``qoe-score`` cells of one scenario key
(:func:`repro.chaos.campaign.scenario_key`) form one unit: the campaign
runner submits it once, and :func:`repro.chaos.campaign.run_scenario_unit`
takes each cell's value at the cell's own end.  Values, cache entries
and telemetry stay per task.
"""

import json
import os

import pytest

from repro.chaos import list_scenarios, run_chaos_cell
from repro.chaos.campaign import run_scenario_unit, scenario_key
from repro.obs import collect
from repro.obs.fleet import REGISTRY_FILENAME, load_campaign_registry
from repro.qoe import run_qoe_cell
from repro.runner import CampaignPlan, run_campaign
from repro.runner.plan import group_units

#: Every scenario at each of its intensities on VRChat, plus AltspaceVR
#: (its own server placement) for the two network faults.
CATALOG = [
    (scenario.name, intensity, "vrchat")
    for scenario in list_scenarios()
    for intensity in scenario.intensity_names
] + [
    (name, intensity, "altspacevr")
    for name in ("regional-outage", "loss-burst")
    for intensity in ("mild", "severe")
]


@pytest.mark.slow
@pytest.mark.parametrize("scenario,intensity,platform", CATALOG)
def test_a_unit_returns_what_each_cell_returns_alone(scenario, intensity, platform):
    chaos = {"scenario": scenario, "platform": platform, "intensity": intensity, "seed": 0}
    qoe = {"platform": platform, "n_users": 2, "seed": 0, "scenario": scenario,
           "intensity": intensity}
    members = [
        ("qoe-score", dict(qoe, duration_s=90.0)),
        ("chaos", chaos),
        ("qoe-score", dict(qoe, duration_s=30.0)),
    ]
    assert len({scenario_key(arguments) for _, arguments in members}) == 1
    alone = [
        run_qoe_cell(**dict(qoe, duration_s=90.0)),
        run_chaos_cell(**chaos),
        run_qoe_cell(**dict(qoe, duration_s=30.0)),
    ]
    # At 90 s the QoE cell outlasts the chaos window, so the unit splits
    # its run.
    assert alone[0].end_s > alone[2].end_s
    assert [repr(value) for value in run_scenario_unit(members)] == [
        repr(value) for value in alone
    ]


#: [chaos, qoe-score] x {regional-outage, loss-burst} on VRChat: the
#: chaos tasks come first, so each unit is tasks (0, 2) or (1, 3).
PLAN = CampaignPlan.from_matrix(
    ["chaos", "qoe-score"],
    grid={"scenario": ["regional-outage", "loss-burst"], "platform": ["vrchat"]},
    seeds=[0],
)


@pytest.fixture(scope="module")
def cells():
    """Each task of ``PLAN`` run alone, and each scenario's event count."""
    values, events = [], {}
    for task in PLAN:
        with collect(max_trace_events=0) as collector:
            values.append(task.execute())
        (obs,) = collector.observabilities
        events[task.kwargs_dict["scenario"]] = obs.registry.value("sim.events_dispatched")
    return values, events


def test_the_plan_groups_each_scenario_into_one_unit():
    assert group_units(PLAN.tasks) == [[0, 2], [1, 3]]


@pytest.mark.parametrize(
    "runner_options",
    [{"parallel": False}, {"parallel": True, "max_workers": 2}],
    ids=["serial", "workers2"],
)
def test_tasks_of_one_unit_keep_their_own_results(cells, tmp_path, runner_options):
    values, events = cells
    metrics_dir = str(tmp_path / "metrics")
    campaign = run_campaign(
        PLAN, cache_dir=None, metrics_dir=metrics_dir, **runner_options
    )
    assert campaign.ok
    assert campaign.summary.executed == 4
    assert [repr(value) for value in campaign.values()] == [repr(v) for v in values]
    task_ids = sorted(task.task_id for task in PLAN)
    for kind in ("task_start", "task_end"):
        assert sorted(e["task"] for e in campaign.events if e["event"] == kind) == task_ids
    # One collector per unit: one dump each, named by both of its
    # tasks, and a fold that counts two simulations, not four.
    with open(os.path.join(metrics_dir, "index.json")) as handle:
        index = json.load(handle)["tasks"]
    dumps = [index[task.task_id]["dump"] for task in PLAN]
    assert dumps[0] == dumps[2] != dumps[1] == dumps[3]
    assert sorted(os.listdir(metrics_dir)) == sorted(
        {"index.json", REGISTRY_FILENAME, dumps[0], dumps[1]}
    )
    assert [result.metrics is not None for result in campaign] == [True, True, False, False]
    registry = load_campaign_registry(os.path.join(metrics_dir, REGISTRY_FILENAME))
    assert registry.merged_registry().value("sim.events_dispatched") == (
        events["regional-outage"] + events["loss-burst"]
    )


def test_a_cached_task_leaves_its_unit_mate_to_run_alone(cells, tmp_path):
    values, _ = cells
    cache_dir = str(tmp_path / "cache")
    chaos, qoe = PLAN.tasks[0], PLAN.tasks[2]
    run_campaign([chaos], parallel=False, cache_dir=cache_dir)
    campaign = run_campaign(
        [chaos, qoe], parallel=False, cache_dir=cache_dir,
        metrics_dir=str(tmp_path / "metrics"),
    )
    assert (campaign.summary.cache_hits, campaign.summary.executed) == (1, 1)
    assert [repr(value) for value in campaign.values()] == [
        repr(values[0]), repr(values[2])
    ]
    assert campaign.task_results[1].metrics["task_id"] == qoe.task_id
