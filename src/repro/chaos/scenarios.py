"""Declarative chaos scenario catalog.

Each :class:`ChaosScenario` is a pure description of one fault class —
what breaks, how hard each named intensity hits, and how long the
post-heal observation window runs.  Nothing in here touches the
simulator: the :mod:`repro.chaos.inject` engine interprets a scenario
against a live testbed, and :mod:`repro.chaos.campaign` expands the
catalog into a runner matrix.

The catalog extends the paper's Sec. 8 tc-netem disruptions (one user's
AP link) to the infrastructure faults a production platform actually
faces: server crashes with failover, regional outages, flapping access
links, correlated loss bursts, DNS/anycast misdirection, and flash
crowds (the avatar-dense events MetaVRadar highlights).

The registry is the single source of truth: the CLI listing, campaign
matrix, docs examples, and finding numbering are all derived from it —
there is no hand-maintained scenario list anywhere else.
"""

from __future__ import annotations

import dataclasses
import types
import typing


@dataclasses.dataclass(frozen=True)
class ChaosScenario:
    """One declarative fault-injection scenario.

    ``kind`` selects the injector implementation; ``intensities`` maps
    an intensity name to the knob values that implementation reads.
    ``fault_offset_s`` is how long after the session has settled the
    fault strikes, and ``observe_s`` how long after the heal point the
    run keeps measuring (the recovery window).  ``recover_fraction`` f
    defines the recovery band: U1's downlink throughput must sustain
    within ``[f * baseline, baseline / f]`` to count as recovered —
    two-sided, so both blackout faults (throughput collapses) and
    flash-crowd faults (throughput explodes) share one verdict rule.
    """

    name: str
    kind: str
    summary: str
    description: str
    intensities: typing.Mapping[str, typing.Mapping[str, float]]
    fault_offset_s: float = 5.0
    observe_s: float = 40.0
    recover_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not self.intensities:
            raise ValueError(f"scenario {self.name!r} declares no intensities")
        if not 0.0 < self.recover_fraction <= 1.0:
            raise ValueError(
                f"recover_fraction must be in (0, 1], got {self.recover_fraction}"
            )
        # Freeze the nested mappings so a registered scenario is
        # genuinely immutable (specs are shared across campaign cells).
        frozen = types.MappingProxyType(
            {
                name: types.MappingProxyType(dict(params))
                for name, params in self.intensities.items()
            }
        )
        object.__setattr__(self, "intensities", frozen)

    @property
    def intensity_names(self) -> typing.Tuple[str, ...]:
        return tuple(sorted(self.intensities))

    def params(self, intensity: str) -> typing.Dict[str, float]:
        try:
            return dict(self.intensities[intensity])
        except KeyError:
            known = ", ".join(self.intensity_names)
            raise KeyError(
                f"scenario {self.name!r} has no intensity {intensity!r}; "
                f"choose from: {known}"
            ) from None


#: Registration order is load-bearing: it fixes each scenario's stable
#: finding number (see :func:`scenario_index`).
SCENARIOS: typing.Dict[str, ChaosScenario] = {}


def register_scenario(scenario: ChaosScenario) -> ChaosScenario:
    if scenario.name in SCENARIOS:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    SCENARIOS[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> ChaosScenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(
            f"unknown chaos scenario {name!r}; choose from: {known}"
        ) from None


def list_scenarios() -> typing.List[ChaosScenario]:
    """Every registered scenario, in registration order."""
    return list(SCENARIOS.values())


def scenario_index(name: str) -> int:
    """Stable catalog position (fixes the chaos finding number)."""
    get_scenario(name)
    return list(SCENARIOS).index(name)


# ----------------------------------------------------------------------
# The catalog
# ----------------------------------------------------------------------
register_scenario(
    ChaosScenario(
        name="server-crash",
        kind="server-crash",
        summary="crash U1's data server; fail over to another region",
        description=(
            "The physical server instance carrying U1's avatar data goes "
            "dark (every link of its host is downed).  After a detection "
            "delay, UDP platforms fail the affected room members over to "
            "an instance in another deployed region — resolved through "
            "PlacementDeployment.host_for(region=...), re-deploying a "
            "fresh instance when the placement has no spare — while "
            "HTTPS platforms (Hubs) ride out the outage until the host "
            "restarts."
        ),
        intensities={
            "mild": {"detect_s": 2.0, "outage_s": 10.0},
            "severe": {"detect_s": 6.0, "outage_s": 25.0},
        },
    )
)

register_scenario(
    ChaosScenario(
        name="regional-outage",
        kind="regional-outage",
        summary="black-hole every backbone link of the serving region",
        description=(
            "All backbone links incident to the core router of the "
            "region hosting U1's data server go down at once (a net.geo "
            "region-scale outage, pre-BGP-reconvergence: traffic keeps "
            "routing into the dead links and drops).  The region returns "
            "after the outage window."
        ),
        intensities={
            "mild": {"outage_s": 8.0},
            "severe": {"outage_s": 20.0},
        },
    )
)

register_scenario(
    ChaosScenario(
        name="link-flap",
        kind="link-flap",
        summary="repeatedly bounce U1's access link mid-session",
        description=(
            "U1's WiFi access link (both directions) flaps: down for "
            "down_s, up for up_s, repeated flaps times — the mid-session "
            "connectivity churn of a roaming or interference-prone "
            "client."
        ),
        intensities={
            "mild": {"flaps": 2, "down_s": 2.0, "up_s": 4.0},
            "severe": {"flaps": 5, "down_s": 5.0, "up_s": 2.0},
        },
    )
)

register_scenario(
    ChaosScenario(
        name="loss-burst",
        kind="loss-burst",
        summary="correlated random-loss bursts on both link directions",
        description=(
            "Bursts of Bernoulli loss hit U1's uplink and downlink "
            "simultaneously (correlated, unlike the paper's one-"
            "direction Sec. 8.2 sweep).  Each burst is healed with "
            "NetemQdisc.reset(), which flushes shaping state and "
            "delivers any queued bytes immediately."
        ),
        intensities={
            "mild": {"loss_rate": 0.5, "burst_s": 5.0, "bursts": 1, "gap_s": 0.0},
            "severe": {"loss_rate": 0.95, "burst_s": 8.0, "bursts": 2, "gap_s": 4.0},
        },
    )
)

register_scenario(
    ChaosScenario(
        name="dns-misdirection",
        kind="dns-misdirection",
        summary="resolve U1's data service to the farthest deployment",
        description=(
            "A poisoned DNS answer / leaked anycast route points U1's "
            "data channel at the geographically farthest deployed "
            "instance instead of the nearest (core.anycast's proximity "
            "inference is exactly what this breaks).  Single-instance "
            "and HTTPS deployments model the detour as added path "
            "latency on the access link instead.  The correct mapping "
            "returns at heal time."
        ),
        intensities={
            "mild": {"duration_s": 12.0, "detour_delay_s": 0.08},
            "severe": {"duration_s": 25.0, "detour_delay_s": 0.25},
        },
    )
)

register_scenario(
    ChaosScenario(
        name="flash-crowd",
        kind="flash-crowd",
        summary="thousands of users storm U1's room, then disperse",
        description=(
            "A flash crowd joins U1's room in per-second batches over "
            "ramp_s seconds (members total), holds for hold_s, then "
            "disperses.  Each member is a crowd peer that injects its "
            "avatar updates at the server; joins beyond the platform's "
            "room capacity are rejected and counted as dropped users "
            "(the Sec. 6.2 event caps, exercised to their limit)."
        ),
        intensities={
            "mild": {"members": 1000, "ramp_s": 10.0, "hold_s": 10.0},
            "severe": {"members": 10000, "ramp_s": 20.0, "hold_s": 15.0},
        },
    )
)
