"""Scenario-cell campaigns: fault x intensity x platform matrices.

A scenario cell builds a fresh testbed, rides a :class:`QoeProbe` over
it, optionally arms one chaos scenario at one intensity, and runs to the
end of its observation window.  The ``chaos`` experiment
(:func:`run_chaos_cell`) judges that run as a :class:`ChaosVerdict`;
the ``qoe-score`` experiment (:func:`repro.qoe.campaign.run_qoe_cell`)
scores its windows.  Cells of one :func:`scenario_key` run the same
simulation, so :func:`run_scenario_unit` runs it once for all of them;
a lone cell is a unit of one.  Both cells are plain module-level
functions, so whole matrices flow through :mod:`repro.runner`
(:func:`run_cell_campaign`): cached, crash-isolated, retried, and
parallelized exactly like every other campaign — and byte-identical
results regardless of worker count.
"""

from __future__ import annotations

import dataclasses
import operator
import typing

from ..measure.session import Testbed, download_drain_s
from ..obs.context import MetricsOnlyObservability, active_collector
from ..platforms.profiles import PLATFORM_NAMES
from ..qoe.streams import QoeProbe
from ..runner import CampaignPlan, TelemetryWriter, run_campaign
from .inject import FaultInjector
from .scenarios import SCENARIOS, get_scenario, list_scenarios
from .verdict import ChaosVerdict, compute_verdict

#: Clients join this long into the run.
JOIN_AT_S = 2.0
#: Settling time after the per-join download drains, before the fault.
SETTLE_S = 8.0


def scenario_key(arguments: typing.Mapping) -> tuple:
    """The simulation a ``chaos`` or ``qoe-score`` cell runs, from its
    full arguments: ``(platform, seed, n_users, scenario, intensity)``.

    A chaos cell has two users.  Without a scenario nothing is armed,
    so the intensity is ``None``.
    """
    scenario = arguments["scenario"]
    return (
        arguments["platform"],
        arguments["seed"],
        arguments.get("n_users", 2),
        scenario,
        None if scenario is None else arguments["intensity"],
    )


def run_scenario_unit(
    members: typing.Sequence[typing.Tuple[str, typing.Mapping]],
) -> list:
    """Run ``chaos`` and ``qoe-score`` cells of one :func:`scenario_key`
    on one simulation; returns their values in member order.

    ``members`` are ``(experiment, arguments)`` pairs with every
    argument given.  The probed testbed is built, and its scenario
    armed ``fault_offset_s`` after the settle point, once.  A member's
    run lasts its ``duration_s`` (none for a chaos cell) past join +
    download settle, extended to ``observe_s`` past the heal when a
    scenario is armed.  The testbed runs to each member's end in
    ascending order, and the member's verdict or window scores are
    taken there.  A split run dispatches exactly what one run does, so
    each value equals the cell run alone.
    """
    # qoe.campaign imports this module.
    from ..qoe.campaign import qoe_cell_result

    platform, seed, n_users, scenario, intensity = scenario_key(members[0][1])
    spec = None
    if scenario is not None:
        spec = get_scenario(scenario)
        spec.params(intensity)  # fail fast on unknown intensity
    # A metrics-only bundle lights up the QoE source counters without
    # kernel profiling; under an active collector (campaign worker with
    # metrics_dir, CLI --profile) the collector's obs applies instead.
    # Either way the scores are identical: they derive only from
    # sim-deterministic metric values.
    obs = None if active_collector() is not None else MetricsOnlyObservability()
    testbed = Testbed(platform, n_users=n_users, seed=seed, obs=obs)
    testbed.start_all(join_at=JOIN_AT_S)
    probe = QoeProbe(testbed)
    probe.start()
    settle = JOIN_AT_S + SETTLE_S + download_drain_s(testbed.profile)
    injector = None
    if spec is not None:
        injector = FaultInjector(testbed, spec, intensity)
        heal_at = injector.arm(settle + spec.fault_offset_s)
    ends = []
    for _, arguments in members:
        end = settle + arguments.get("duration_s", 0.0)
        if injector is not None:
            end = max(end, heal_at + spec.observe_s)
        ends.append(end)
    values: list = [None] * len(members)
    for index in sorted(range(len(members)), key=ends.__getitem__):
        end = ends[index]
        testbed.run(until=end)
        experiment, arguments = members[index]
        if experiment == "chaos":
            values[index] = compute_verdict(
                testbed, injector, spec, intensity, seed, end, qoe_probe=probe
            )
        else:
            values[index] = qoe_cell_result(testbed, probe, arguments, end)
    return values


def run_chaos_cell(
    scenario: str,
    platform: str,
    intensity: str = "mild",
    seed: int = 0,
) -> ChaosVerdict:
    """Run one (scenario, platform, intensity, seed) campaign cell."""
    get_scenario(scenario)  # a chaos cell always has a fault
    arguments = {
        "scenario": scenario, "platform": platform,
        "intensity": intensity, "seed": seed,
    }
    (verdict,) = run_scenario_unit([("chaos", arguments)])
    return verdict


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
    the catalog does not define, so sparse matrices stay valid; a
    matrix left with no pair at all is a ``ValueError``.
    """
    scenario_names = list(scenarios) if scenarios else sorted(SCENARIOS)
    specs = [get_scenario(name) for name in scenario_names]  # fail fast
    intensity_list = list(intensities) if intensities else intensity_names()
    if not any(i in spec.intensities for spec in specs for i in intensity_list):
        defined = "; ".join(
            f"{spec.name} [{'/'.join(spec.intensity_names)}]" for spec in specs
        )
        raise ValueError(
            f"intensities {', '.join(intensity_list)} select no chaos cell; "
            f"the selected scenarios define: {defined}"
        )
    grid = {
        "scenario": scenario_names,
        "platform": list(platforms) if platforms else list(PLATFORM_NAMES),
        "intensity": intensity_list,
    }

    def keep(_experiment: str, kwargs: typing.Mapping) -> bool:
        return kwargs["intensity"] in get_scenario(kwargs["scenario"]).intensities

    return CampaignPlan.from_matrix(
        ["chaos"], grid=grid, seeds=seeds, keep=keep
    )


#: The :func:`repro.runner.run_campaign` options a scenario-cell
#: campaign passes through (the driver opens ``telemetry_path`` itself).
RUNNER_OPTIONS = frozenset(
    {
        "parallel", "max_workers", "timeout_s", "max_retries", "cache_dir",
        "use_cache", "telemetry_path", "metrics_dir", "collect_obs",
    }
)


def run_cell_campaign(
    plan: CampaignPlan,
    cell_type: type,
    sort_key: typing.Callable,
    event: str,
    fields: typing.Sequence[str],
    **runner_options,
) -> typing.Tuple[typing.Any, list]:
    """Run a plan of scenario cells; returns ``(campaign, cells)``.

    ``cells`` are the successful ``cell_type`` results, stamped with
    the correlation ids of the campaign that ran them and sorted by
    ``sort_key`` into a canonical, shard-independent order.  The driver
    owns the telemetry stream: every event carries the plan-derived
    ``campaign_id``, and each cell is echoed as one ``event`` carrying
    its task id and ``fields`` after the runner's ``campaign_end`` —
    the join point the HTML campaign report uses.  ``runner_options``
    (named in :data:`RUNNER_OPTIONS`) go to :func:`run_campaign`.
    """
    unknown = sorted(set(runner_options) - RUNNER_OPTIONS)
    if unknown:
        raise TypeError(f"unexpected runner option(s): {', '.join(unknown)}")
    telemetry_path = runner_options.pop("telemetry_path", None)
    with TelemetryWriter(
        telemetry_path, context={"campaign_id": plan.campaign_id}
    ) as telemetry:
        campaign = run_campaign(plan, telemetry=telemetry, **runner_options)
        cells = []
        for result in campaign:
            if not (result.ok and isinstance(result.value, cell_type)):
                continue
            cell = result.value
            try:
                cell = dataclasses.replace(
                    cell,
                    campaign_id=plan.campaign_id,
                    task_id=result.spec.task_id,
                )
            except (AttributeError, TypeError):  # cached pre-correlation pickle
                pass
            cells.append(cell)
        cells.sort(key=sort_key)
        for cell in cells:
            telemetry.emit(
                event,
                task=cell.task_id,
                **{name: getattr(cell, name) for name in fields},
            )
    return campaign, cells


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
    **runner_options,
) -> ChaosCampaignOutcome:
    """Run a chaos matrix through :func:`run_cell_campaign`, echoing
    each verdict as a ``chaos_verdict`` telemetry event."""
    campaign, verdicts = run_cell_campaign(
        build_chaos_plan(scenarios, platforms, intensities, seeds),
        ChaosVerdict,
        operator.attrgetter("scenario", "platform", "intensity", "seed"),
        "chaos_verdict",
        (
            "scenario", "platform", "intensity", "seed",
            "passed", "recovered", "recovery_time_s", "session_survival_rate",
        ),
        **runner_options,
    )
    return ChaosCampaignOutcome(campaign=campaign, verdicts=verdicts)
