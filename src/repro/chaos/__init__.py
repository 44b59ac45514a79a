"""repro.chaos: declarative fault injection and resiliency campaigns.

The robustness pillar on top of the measurement testbed: a scenario
catalog (:mod:`.scenarios`), a kernel-scheduled fault-injection engine
(:mod:`.inject`), a deterministic verdict layer (:mod:`.verdict`), and
a campaign driver (:mod:`.campaign`) that expands fault x intensity x
platform matrices through :mod:`repro.runner`.  See ``docs/CHAOS.md``.

Exports resolve lazily (PEP 562) so that importing the scenario
catalog alone — e.g. for CLI help text — does not pull in the full
testbed stack.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "ChaosCampaignOutcome": ".campaign",
    "build_chaos_plan": ".campaign",
    "run_chaos_campaign": ".campaign",
    "run_chaos_cell": ".campaign",
    "FaultInjector": ".inject",
    "SCENARIOS": ".scenarios",
    "ChaosScenario": ".scenarios",
    "get_scenario": ".scenarios",
    "list_scenarios": ".scenarios",
    "register_scenario": ".scenarios",
    "scenario_index": ".scenarios",
    "ChaosVerdict": ".verdict",
    "compute_verdict": ".verdict",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
