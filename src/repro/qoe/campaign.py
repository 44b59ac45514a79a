"""QoE campaign driver: score a platform matrix, optionally under fault.

One cell (:func:`run_qoe_cell`) builds a fresh testbed with a
metrics-only observability bundle, rides a :class:`QoeProbe` over the
run, and returns a picklable :class:`QoeCellResult` — per-user window
scores plus roll-ups.  Passing a chaos ``scenario`` arms a
:class:`~repro.chaos.inject.FaultInjector` exactly like
``run_chaos_cell`` does, so "what did users feel during the loss
burst?" is one flag away from "did the platform recover?".

Registered as the ``qoe-score`` experiment (``qoe`` already names the
paper's Sec. 8.2 latency/loss study), so matrices flow through
:mod:`repro.runner`: cached, crash-isolated, parallelized, and
byte-identical regardless of worker count.
"""

from __future__ import annotations

import dataclasses
import typing

from ..chaos.campaign import JOIN_AT_S, SETTLE_S
from ..measure.session import Testbed, download_drain_s
from ..obs.context import MetricsOnlyObservability, active_collector
from ..platforms.profiles import PLATFORM_NAMES
from ..runner import CampaignPlan, TelemetryWriter, run_campaign
from .slo import SloReport, SloSpec, evaluate_slo
from .streams import QoeProbe, UserQoeSummary, WindowScore


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
    scenario's observation window past the heal point (matching
    ``run_chaos_cell`` timing), whichever is later.
    """
    obs = None if active_collector() is not None else MetricsOnlyObservability()
    testbed = Testbed(platform, n_users=n_users, seed=seed, obs=obs)
    testbed.start_all(join_at=JOIN_AT_S)
    probe = QoeProbe(testbed)
    probe.start()

    settle = JOIN_AT_S + SETTLE_S + download_drain_s(testbed.profile)
    end = settle + duration_s
    if scenario is not None:
        from ..chaos.inject import FaultInjector
        from ..chaos.scenarios import get_scenario

        spec = get_scenario(scenario)
        spec.params(intensity)  # fail fast on unknown intensity
        injector = FaultInjector(testbed, spec, intensity)
        fault_at = settle + spec.fault_offset_s
        heal_at = injector.arm(fault_at)
        end = max(end, heal_at + spec.observe_s)

    testbed.run(until=end)

    windows = tuple(probe.window_scores())
    users = tuple(probe.user_summaries())
    values = [window.score for window in windows]
    return QoeCellResult(
        platform=testbed.profile.name,
        seed=seed,
        n_users=n_users,
        scenario=scenario,
        intensity=intensity if scenario is not None else None,
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
    parallel: bool = True,
    max_workers: typing.Optional[int] = None,
    timeout_s: typing.Optional[float] = None,
    max_retries: int = 2,
    cache_dir: typing.Optional[str] = None,
    use_cache: bool = True,
    telemetry_path: typing.Optional[str] = None,
    metrics_dir: typing.Optional[str] = None,
    collect_obs: bool = False,
) -> QoeCampaignOutcome:
    """Run a QoE matrix through the campaign runner.

    The driver owns the telemetry stream: every event carries the
    plan-derived ``campaign_id``, and each scored cell is echoed as a
    ``qoe_cell`` event after the runner's ``campaign_end`` — the join
    point the HTML campaign report uses.
    """
    plan = build_qoe_plan(
        platforms,
        seeds,
        n_users=n_users,
        duration_s=duration_s,
        scenario=scenario,
        intensity=intensity,
    )
    with TelemetryWriter(
        telemetry_path, context={"campaign_id": plan.campaign_id}
    ) as telemetry:
        campaign = run_campaign(
            plan,
            parallel=parallel,
            max_workers=max_workers,
            timeout_s=timeout_s,
            max_retries=max_retries,
            cache_dir=cache_dir,
            use_cache=use_cache,
            telemetry=telemetry,
            metrics_dir=metrics_dir,
            collect_obs=collect_obs,
        )
        results = _ordered_results(campaign, plan.campaign_id)
        for cell in results:
            telemetry.emit(
                "qoe_cell",
                task=cell.task_id,
                platform=cell.platform,
                seed=cell.seed,
                scenario=cell.scenario,
                intensity=cell.intensity,
                mean_score=cell.mean_score,
                worst_score=cell.worst_score,
                below_threshold_user_s=cell.below_threshold_user_s,
            )
    return QoeCampaignOutcome(campaign=campaign, results=results)


def _ordered_results(campaign, campaign_id: str = "") -> typing.List[QoeCellResult]:
    """Successful results in a canonical, shard-independent order,
    stamped with the correlation ids of the campaign that ran them."""
    results = []
    for result in campaign:
        if not (result.ok and isinstance(result.value, QoeCellResult)):
            continue
        cell = result.value
        try:
            cell = dataclasses.replace(
                cell,
                campaign_id=campaign_id,
                task_id=result.spec.task_id,
            )
        except (AttributeError, TypeError):  # cached pre-correlation pickle
            pass
        results.append(cell)
    results.sort(key=lambda r: (r.platform, r.seed))
    return results
