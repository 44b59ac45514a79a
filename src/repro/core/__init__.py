"""Core library: the paper's measurement methodology and analyses."""

from .._lazy import lazy_exports

_EXPORTS = {
    "AnycastInference": ".anycast",
    "VantageProbe": ".anycast",
    "infer_anycast": ".anycast",
    "BreakdownSample": ".breakdown",
    "breakdown_consistent": ".breakdown",
    "compute_breakdown": ".breakdown",
    "dominant_component": ".breakdown",
    "ChannelEvidence": ".channels",
    "ChannelSeparationReport": ".channels",
    "analyze_channels": ".channels",
    "Finding": ".findings",
    "check_finding_1_channels": ".findings",
    "check_finding_2_throughput": ".findings",
    "check_finding_3_scalability": ".findings",
    "check_finding_4_latency": ".findings",
    "check_finding_5_tcp_priority": ".findings",
    "AblationPoint": ".remote_rendering",
    "ArchitectureComparison": ".remote_rendering",
    "compare_architectures": ".remote_rendering",
    "forwarding_crossover": ".remote_rendering",
    "run_remote_rendering_ablation": ".remote_rendering",
    "AvatarSeparation": ".separation",
    "expected_avatar_kbps": ".separation",
    "separate": ".separation",
    "SolutionPoint": ".solutions",
    "compare_solutions": ".solutions",
    "forwarding_reference": ".solutions",
    "run_interest_ablation": ".solutions",
    "run_p2p_ablation": ".solutions",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
