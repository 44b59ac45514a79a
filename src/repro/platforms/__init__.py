"""The five social VR platform models and their shared machinery."""

from .._lazy import lazy_exports

_EXPORTS = {
    "LightweightPeer": ".base",
    "PlatformClient": ".base",
    "PlatformDeployment": ".base",
    "PLATFORM_NAMES": ".profiles",
    "PROFILES": ".profiles",
    "all_profiles": ".profiles",
    "get_profile": ".profiles",
    "feature_row": ".registry",
    "feature_table": ".registry",
    "platform_summary": ".registry",
    "ControlChannelSpec": ".spec",
    "DataChannelSpec": ".spec",
    "FeatureSet": ".spec",
    "GaussianMs": ".spec",
    "HTTPS_TRANSPORT": ".spec",
    "LatencyProfile": ".spec",
    "PlatformProfile": ".spec",
    "UDP_TRANSPORT": ".spec",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
