"""repro.qoe: per-user experience scoring + SLO engine over repro.obs.

The observability stack's user-facing quality axis: derived per-user
signal streams (:mod:`.streams`) tapped read-only from the metric
registries, a deterministic MOS-style scoring model with MetaVRadar
lifecycle-phase weighting (:mod:`.model`), declarative SLOs evaluated
into burn rates and breach events (:mod:`.slo`), campaign cells that
score platforms — optionally under chaos faults — through
:mod:`repro.runner` (:mod:`.campaign`), and cohort-level scoring for
the fluid metaverse-scale projections (:mod:`.cohort`).  See
``docs/QOE.md``.

Exports resolve lazily (PEP 562) so that importing the scoring model
alone — e.g. for CLI help text — does not pull in the full testbed
stack.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "ChannelSignals": ".model",
    "DEFAULT_MODEL": ".model",
    "DEGRADED_THRESHOLD": ".model",
    "DENSE_EVENT_REMOTES": ".model",
    "PHASES": ".model",
    "PiecewiseCurve": ".model",
    "QoeModel": ".model",
    "classify_phase": ".model",
    "mos_label": ".model",
    "phase_code": ".model",
    "phase_from_code": ".model",
    "QoeProbe": ".streams",
    "SignalWindow": ".streams",
    "UserQoeSummary": ".streams",
    "WindowScore": ".streams",
    "BreachEvent": ".slo",
    "DEFAULT_SLO": ".slo",
    "SloReport": ".slo",
    "SloSpec": ".slo",
    "SloWindow": ".slo",
    "evaluate_slo": ".slo",
    "percentile": ".slo",
    "QoeCampaignOutcome": ".campaign",
    "QoeCellResult": ".campaign",
    "build_qoe_plan": ".campaign",
    "run_qoe_campaign": ".campaign",
    "run_qoe_cell": ".campaign",
    "cohort_score": ".cohort",
    "cohort_weights": ".cohort",
    "mean_mos_per_bin": ".cohort",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
