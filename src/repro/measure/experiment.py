"""Experiment registry: programmatic discovery of every experiment.

Each of the paper's experiments is a plain function somewhere in
:mod:`repro.measure` or :mod:`repro.core`; this registry gives them
stable names, descriptions, and paper-artifact labels so tooling (the
CLI, campaign runners, notebooks) can enumerate and run them uniformly.
"""

from __future__ import annotations

import dataclasses
import inspect
import typing


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """One runnable experiment and its provenance.

    Experiments whose tasks can share one simulation declare how:
    ``unit_key(arguments)`` names the simulation a task runs, from its
    full :meth:`arguments`, and ``unit_runner(members)`` runs that
    simulation once for ``(experiment, arguments)`` members of one key,
    returning each member's value, in member order, as the member run
    alone would.  The campaign runner executes tasks of one key as one
    unit.
    """

    name: str
    artifact: str  # the paper table/figure/section it regenerates
    description: str
    runner: typing.Callable
    default_kwargs: typing.Mapping = dataclasses.field(default_factory=dict)
    unit_key: typing.Optional[typing.Callable[[dict], typing.Hashable]] = None
    unit_runner: typing.Optional[typing.Callable[[list], list]] = None

    def run(self, **overrides):
        kwargs = dict(self.default_kwargs)
        kwargs.update(overrides)
        return self.runner(**kwargs)

    def arguments(self, **overrides) -> dict:
        """The runner's parameters as :meth:`run` binds them for
        ``overrides``, its own defaults included; a ``TypeError`` if
        the runner does not accept them."""
        kwargs = dict(self.default_kwargs)
        kwargs.update(overrides)
        bound = inspect.signature(self.runner).bind(**kwargs)
        bound.apply_defaults()
        return dict(bound.arguments)


def _build_registry() -> typing.Dict[str, ExperimentSpec]:
    from ..core.api import (
        fig2_channel_timelines,
        fig3_forwarding,
        fig6_join_timelines,
        fig7_fig8_user_sweep,
        fig9_hubs_large_scale,
        fig11_latency_scaling,
        fig12_downlink_disruption,
        fig13_uplink_disruption,
        latency_loss_qoe,
        remote_rendering_study,
        table1_features,
        table2_infrastructure,
        table3_throughput,
        table4_latency,
        viewport_width_experiment,
    )
    from ..chaos.campaign import run_chaos_cell, run_scenario_unit, scenario_key
    from ..core.solutions import compare_solutions
    from ..qoe.campaign import run_qoe_cell
    from ..scale.shard import metaverse_scale_experiment
    from .infrastructure import regional_study
    from .prediction import run_viewport_tradeoff
    from .workload import run_public_event

    specs = [
        ExperimentSpec(
            "features", "Table 1", "platform feature comparison", table1_features
        ),
        ExperimentSpec(
            "infrastructure",
            "Table 2",
            "protocols, server locations/owners, anycast, RTTs",
            table2_infrastructure,
        ),
        ExperimentSpec(
            "regional",
            "Sec. 4.2",
            "probing from Los Angeles and the United Kingdom",
            regional_study,
        ),
        ExperimentSpec(
            "channels",
            "Fig. 2",
            "control/data channel activity per stage",
            fig2_channel_timelines,
        ),
        ExperimentSpec(
            "throughput",
            "Table 3",
            "two-user throughput, resolution, avatar bitrate",
            table3_throughput,
        ),
        ExperimentSpec(
            "forwarding",
            "Fig. 3",
            "U1 uplink mirrored in U2 downlink",
            fig3_forwarding,
        ),
        ExperimentSpec(
            "join-timeline",
            "Fig. 6",
            "throughput as users join; 180-degree turn at 250 s",
            fig6_join_timelines,
        ),
        ExperimentSpec(
            "viewport-width",
            "Sec. 6.1",
            "snap-turn detection of the server viewport",
            viewport_width_experiment,
        ),
        ExperimentSpec(
            "viewport-tradeoff",
            "Sec. 6.1 (ablation)",
            "viewport width vs prediction vs missing content",
            run_viewport_tradeoff,
        ),
        ExperimentSpec(
            "scalability",
            "Figs. 7/8",
            "throughput, FPS, resources vs 1-15 users",
            fig7_fig8_user_sweep,
        ),
        ExperimentSpec(
            "hubs-large",
            "Fig. 9",
            "private Hubs server with up to 28 users",
            fig9_hubs_large_scale,
        ),
        ExperimentSpec(
            "public-event",
            "Sec. 6.2",
            "churning public event; downlink vs occupancy",
            run_public_event,
            {"platform": "vrchat"},
        ),
        ExperimentSpec(
            "latency",
            "Table 4",
            "end-to-end latency breakdown incl. private Hubs",
            table4_latency,
        ),
        ExperimentSpec(
            "latency-scaling",
            "Fig. 11",
            "E2E latency vs event size",
            fig11_latency_scaling,
        ),
        ExperimentSpec(
            "downlink-disruption",
            "Fig. 12",
            "Worlds under staged downlink limits",
            fig12_downlink_disruption,
        ),
        ExperimentSpec(
            "uplink-disruption",
            "Fig. 13",
            "uplink shaping and the TCP-over-UDP priority",
            fig13_uplink_disruption,
        ),
        ExperimentSpec(
            "qoe",
            "Sec. 8.2",
            "latency and packet-loss QoE thresholds",
            latency_loss_qoe,
        ),
        ExperimentSpec(
            "remote-rendering",
            "Sec. 6.3",
            "remote rendering vs forwarding",
            remote_rendering_study,
        ),
        ExperimentSpec(
            "solutions",
            "Sec. 6.2/6.3 (ablation)",
            "forwarding vs P2P vs interest scoping",
            compare_solutions,
        ),
        ExperimentSpec(
            "metaverse-scale",
            "Sec. 7 (projection)",
            "fluid fan-out to thousands of rooms + capacity plan",
            metaverse_scale_experiment,
        ),
        ExperimentSpec(
            "chaos",
            "Sec. 8 (extension)",
            "one chaos fault-injection cell (scenario x platform x intensity)",
            run_chaos_cell,
            {"scenario": "link-flap", "platform": "vrchat"},
            unit_key=scenario_key,
            unit_runner=run_scenario_unit,
        ),
        ExperimentSpec(
            "qoe-score",
            "Sec. 8 (extension)",
            "per-user QoE scoring cell (MOS windows + SLO evaluation)",
            run_qoe_cell,
            {"platform": "vrchat"},
            unit_key=scenario_key,
            unit_runner=run_scenario_unit,
        ),
    ]
    return {spec.name: spec for spec in specs}


_REGISTRY: typing.Optional[typing.Dict[str, ExperimentSpec]] = None


def registry() -> typing.Dict[str, ExperimentSpec]:
    """The experiment registry (built lazily, cached)."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _build_registry()
    return _REGISTRY


def list_experiments() -> typing.List[ExperimentSpec]:
    """All experiments in registration order."""
    return list(registry().values())


def get_experiment(name: str) -> ExperimentSpec:
    try:
        return registry()[name]
    except KeyError:
        known = ", ".join(sorted(registry()))
        raise KeyError(f"unknown experiment {name!r}; choose from: {known}") from None


def register_experiment(
    name: str,
    runner: typing.Callable,
    artifact: str = "custom",
    description: str = "",
    default_kwargs: typing.Optional[typing.Mapping] = None,
    replace: bool = False,
) -> ExperimentSpec:
    """Register an extra experiment (notebook one-offs, campaign stubs).

    Registered experiments are first-class: the CLI lists them and the
    campaign runner can execute them by name.  Workers forked by the
    runner inherit dynamic registrations.
    """
    if not replace and name in registry():
        raise ValueError(f"experiment {name!r} already registered")
    spec = ExperimentSpec(
        name, artifact, description, runner, dict(default_kwargs or {})
    )
    registry()[name] = spec
    return spec


def unregister_experiment(name: str) -> None:
    """Remove a dynamically registered experiment (no-op if absent)."""
    registry().pop(name, None)


def run_experiment(name: str, **kwargs):
    """Run one experiment by name with optional overrides."""
    return get_experiment(name).run(**kwargs)
