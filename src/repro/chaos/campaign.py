"""Chaos campaign driver: fault x intensity x platform matrices.

One campaign cell (:func:`run_chaos_cell`) builds a fresh two-user
testbed, arms one scenario at one intensity, runs to the end of the
observation window, and returns the :class:`ChaosVerdict`.  The cell is
a plain module-level function, registered as the ``chaos`` experiment,
so the whole matrix flows through :mod:`repro.runner`: cached,
crash-isolated, retried, and parallelized exactly like every other
campaign — and byte-identical verdicts regardless of worker count.
"""

from __future__ import annotations

import dataclasses
import typing

from ..measure.session import Testbed, download_drain_s
from ..obs.context import MetricsOnlyObservability, active_collector
from ..platforms.profiles import PLATFORM_NAMES
from ..qoe.streams import QoeProbe
from ..runner import CampaignPlan, TelemetryWriter, run_campaign
from .inject import FaultInjector
from .scenarios import SCENARIOS, get_scenario, list_scenarios
from .verdict import ChaosVerdict, compute_verdict

#: Clients join this long into the run; QoE cells share this pacing.
JOIN_AT_S = 2.0
#: Settling time after the per-join download drains, before the fault.
SETTLE_S = 8.0


def run_chaos_cell(
    scenario: str,
    platform: str,
    intensity: str = "mild",
    seed: int = 0,
) -> ChaosVerdict:
    """Run one (scenario, platform, intensity, seed) campaign cell."""
    spec = get_scenario(scenario)
    spec.params(intensity)  # fail fast on unknown intensity
    # A metrics-only bundle lights up the QoE source counters without
    # kernel profiling; under an active collector (campaign worker with
    # metrics_dir, CLI --profile) the collector's full obs applies
    # instead.  Either way the scores are identical: they derive only
    # from sim-deterministic metric values.
    obs = None if active_collector() is not None else MetricsOnlyObservability()
    testbed = Testbed(platform, n_users=2, seed=seed, obs=obs)
    testbed.start_all(join_at=JOIN_AT_S)
    probe = QoeProbe(testbed)
    probe.start()
    injector = FaultInjector(testbed, spec, intensity)
    fault_at = (
        JOIN_AT_S
        + SETTLE_S
        + download_drain_s(testbed.profile)
        + spec.fault_offset_s
    )
    heal_at = injector.arm(fault_at)
    end = heal_at + spec.observe_s
    testbed.run(until=end)
    return compute_verdict(
        testbed, injector, spec, intensity, seed, end, qoe_probe=probe
    )


def intensity_names() -> typing.List[str]:
    """Every intensity name appearing anywhere in the catalog."""
    names: typing.List[str] = []
    for scenario in list_scenarios():
        for name in scenario.intensity_names:
            if name not in names:
                names.append(name)
    return names


def build_chaos_plan(
    scenarios: typing.Optional[typing.Sequence[str]] = None,
    platforms: typing.Optional[typing.Sequence[str]] = None,
    intensities: typing.Optional[typing.Sequence[str]] = None,
    seeds: typing.Iterable[int] = (0,),
) -> CampaignPlan:
    """Expand the chaos matrix into runner tasks.

    Defaults run the full catalog over every platform at every
    intensity.  The ``keep`` filter prunes (scenario, intensity) pairs
    the catalog does not define, so sparse matrices stay valid.
    """
    scenario_names = list(scenarios) if scenarios else sorted(SCENARIOS)
    for name in scenario_names:
        get_scenario(name)  # fail fast on unknown scenarios
    grid = {
        "scenario": scenario_names,
        "platform": list(platforms) if platforms else list(PLATFORM_NAMES),
        "intensity": list(intensities) if intensities else intensity_names(),
    }

    def keep(_experiment: str, kwargs: typing.Mapping) -> bool:
        return kwargs["intensity"] in get_scenario(kwargs["scenario"]).intensities

    return CampaignPlan.from_matrix(
        ["chaos"], grid=grid, seeds=seeds, keep=keep
    )


@dataclasses.dataclass
class ChaosCampaignOutcome:
    """Verdicts plus the raw runner result for one chaos campaign."""

    campaign: typing.Any  # repro.runner.CampaignResult
    verdicts: typing.List[ChaosVerdict]

    @property
    def findings(self):
        """One Finding per completed cell, in verdict order."""
        return [verdict.to_finding() for verdict in self.verdicts]

    @property
    def ok(self) -> bool:
        return self.campaign.ok


def run_chaos_campaign(
    scenarios: typing.Optional[typing.Sequence[str]] = None,
    platforms: typing.Optional[typing.Sequence[str]] = None,
    intensities: typing.Optional[typing.Sequence[str]] = None,
    seeds: typing.Iterable[int] = (0,),
    *,
    parallel: bool = True,
    max_workers: typing.Optional[int] = None,
    timeout_s: typing.Optional[float] = None,
    max_retries: int = 2,
    cache_dir: typing.Optional[str] = None,
    use_cache: bool = True,
    telemetry_path: typing.Optional[str] = None,
    metrics_dir: typing.Optional[str] = None,
    collect_obs: bool = False,
) -> ChaosCampaignOutcome:
    """Run a chaos matrix through the campaign runner.

    The driver owns the telemetry stream: every event carries the
    plan-derived ``campaign_id``, and each completed cell is echoed as
    a ``chaos_verdict`` event after the runner's ``campaign_end`` —
    the join point the HTML campaign report uses.
    """
    plan = build_chaos_plan(scenarios, platforms, intensities, seeds)
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
        verdicts = _ordered_verdicts(campaign, plan.campaign_id)
        for verdict in verdicts:
            telemetry.emit(
                "chaos_verdict",
                task=verdict.task_id,
                scenario=verdict.scenario,
                platform=verdict.platform,
                intensity=verdict.intensity,
                seed=verdict.seed,
                passed=verdict.passed,
                recovered=verdict.recovered,
                recovery_time_s=verdict.recovery_time_s,
                session_survival_rate=verdict.session_survival_rate,
            )
    return ChaosCampaignOutcome(campaign=campaign, verdicts=verdicts)


def _ordered_verdicts(campaign, campaign_id: str = "") -> typing.List[ChaosVerdict]:
    """Successful verdicts in a canonical, shard-independent order,
    stamped with the correlation ids of the campaign that ran them."""
    verdicts = []
    for result in campaign:
        if not (result.ok and isinstance(result.value, ChaosVerdict)):
            continue
        verdict = result.value
        try:
            verdict = dataclasses.replace(
                verdict,
                campaign_id=campaign_id,
                task_id=result.spec.task_id,
            )
        except (AttributeError, TypeError):  # cached pre-correlation pickle
            pass
        verdicts.append(verdict)
    verdicts.sort(
        key=lambda v: (v.scenario, v.platform, v.intensity, v.seed)
    )
    return verdicts
