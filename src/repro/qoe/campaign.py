"""QoE campaign driver: score a platform matrix, optionally under fault.

One cell (:func:`run_qoe_cell`) is a scenario cell
(:func:`repro.chaos.campaign.run_scenario_unit`: a fresh testbed with a
metrics-only observability bundle and a :class:`QoeProbe` riding the
run) plus window scoring; it returns a picklable
:class:`QoeCellResult` — per-user window scores plus roll-ups.  Passing
a chaos ``scenario`` arms the same fault ``run_chaos_cell`` judges, so
"what did users feel during the loss burst?" is one flag away from
"did the platform recover?".

Registered as the ``qoe-score`` experiment (``qoe`` already names the
paper's Sec. 8.2 latency/loss study), so matrices flow through
:mod:`repro.runner`: cached, crash-isolated, parallelized, and
byte-identical regardless of worker count.
"""

from __future__ import annotations

import dataclasses
import operator
import typing

from ..chaos.campaign import run_cell_campaign, run_scenario_unit
from ..chaos.scenarios import get_scenario
from ..platforms.profiles import PLATFORM_NAMES
from ..runner import CampaignPlan
from .slo import SloReport, SloSpec, evaluate_slo
from .streams import UserQoeSummary, WindowScore


@dataclasses.dataclass(frozen=True)
class QoeCellResult:
    """Everything one QoE cell scored, picklable for the runner cache."""

    platform: str
    seed: int
    n_users: int
    scenario: typing.Optional[str]
    intensity: typing.Optional[str]
    #: Sim time the cell ran to.
    end_s: float
    windows: typing.Tuple[WindowScore, ...]
    users: typing.Tuple[UserQoeSummary, ...]
    mean_score: float
    worst_score: float
    #: User-seconds spent below the degraded threshold, summed over users.
    below_threshold_user_s: float
    #: Correlation ids (defaulted so cached pre-observability results
    #: still load): the campaign and task this cell came from.
    campaign_id: str = ""
    task_id: str = ""

    def evaluate(self, spec: SloSpec) -> SloReport:
        """Evaluate one SLO over this cell's window scores."""
        return evaluate_slo(spec, self.windows)


def run_qoe_cell(
    platform: str,
    n_users: int = 2,
    duration_s: float = 30.0,
    seed: int = 0,
    scenario: typing.Optional[str] = None,
    intensity: str = "mild",
) -> QoeCellResult:
    """Score one (platform, seed) cell, optionally under a chaos fault.

    ``duration_s`` is the scored in-event time after join + download
    settle; with a ``scenario`` the run instead extends to the
    scenario's observation window past the heal point, whichever is
    later.  That is the timing
    :func:`~repro.chaos.campaign.run_scenario_unit` gives every
    scenario cell, so ``run_chaos_cell`` judges the same run.
    """
    arguments = {
        "platform": platform, "n_users": n_users, "duration_s": duration_s,
        "seed": seed, "scenario": scenario, "intensity": intensity,
    }
    (result,) = run_scenario_unit([("qoe-score", arguments)])
    return result


def qoe_cell_result(
    testbed, probe, arguments: typing.Mapping, end: float
) -> QoeCellResult:
    """Score the windows of a ``qoe-score`` cell whose testbed is at
    ``end``; ``arguments`` are the cell's, every one given."""
    windows = tuple(probe.window_scores())
    users = tuple(probe.user_summaries())
    values = [window.score for window in windows]
    scenario = arguments["scenario"]
    return QoeCellResult(
        platform=testbed.profile.name,
        seed=arguments["seed"],
        n_users=arguments["n_users"],
        scenario=scenario,
        intensity=arguments["intensity"] if scenario is not None else None,
        end_s=round(end, 6),
        windows=windows,
        users=users,
        mean_score=round(sum(values) / len(values), 6) if values else 0.0,
        worst_score=round(min(values), 6) if values else 0.0,
        below_threshold_user_s=round(
            sum(user.seconds_below for user in users), 6
        ),
    )


@dataclasses.dataclass
class QoeCampaignOutcome:
    """Cell results plus the raw runner result for one QoE campaign."""

    campaign: typing.Any  # repro.runner.CampaignResult
    results: typing.List[QoeCellResult]

    @property
    def ok(self) -> bool:
        return self.campaign.ok

    def pooled_windows(self, platform: str) -> typing.List[WindowScore]:
        """All window scores for one platform, across seeds, in a
        canonical (seed, user, time) order for SLO evaluation."""
        windows: typing.List[WindowScore] = []
        for result in self.results:
            if result.platform == platform:
                windows.extend(result.windows)
        return windows

    def platforms(self) -> typing.List[str]:
        seen: typing.List[str] = []
        for result in self.results:
            if result.platform not in seen:
                seen.append(result.platform)
        return seen


def build_qoe_plan(
    platforms: typing.Optional[typing.Sequence[str]] = None,
    seeds: typing.Iterable[int] = (0,),
    *,
    n_users: int = 2,
    duration_s: float = 30.0,
    scenario: typing.Optional[str] = None,
    intensity: str = "mild",
) -> CampaignPlan:
    """Expand the QoE matrix (platform x seed) into runner tasks."""
    base = {"n_users": n_users, "duration_s": duration_s}
    if scenario is not None:
        get_scenario(scenario).params(intensity)  # fail before any task runs
        base["scenario"] = scenario
        base["intensity"] = intensity
    return CampaignPlan.from_matrix(
        ["qoe-score"],
        grid={"platform": list(platforms) if platforms else list(PLATFORM_NAMES)},
        seeds=seeds,
        base_kwargs=base,
    )


def run_qoe_campaign(
    platforms: typing.Optional[typing.Sequence[str]] = None,
    seeds: typing.Iterable[int] = (0,),
    *,
    n_users: int = 2,
    duration_s: float = 30.0,
    scenario: typing.Optional[str] = None,
    intensity: str = "mild",
    **runner_options,
) -> QoeCampaignOutcome:
    """Run a QoE matrix through
    :func:`~repro.chaos.campaign.run_cell_campaign`, echoing each
    scored cell as a ``qoe_cell`` telemetry event."""
    plan = build_qoe_plan(
        platforms,
        seeds,
        n_users=n_users,
        duration_s=duration_s,
        scenario=scenario,
        intensity=intensity,
    )
    campaign, results = run_cell_campaign(
        plan,
        QoeCellResult,
        operator.attrgetter("platform", "seed"),
        "qoe_cell",
        (
            "platform", "seed", "scenario", "intensity",
            "mean_score", "worst_score", "below_threshold_user_s",
        ),
        **runner_options,
    )
    return QoeCampaignOutcome(campaign=campaign, results=results)
