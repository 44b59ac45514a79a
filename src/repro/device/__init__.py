"""Client device models: headsets, rendering, resources, metrics."""

from .._lazy import lazy_exports

_EXPORTS = {
    "DEVICES": ".headset",
    "PC_CLIENT": ".headset",
    "QUEST_2": ".headset",
    "VIVE_COSMOS": ".headset",
    "HeadsetProfile": ".headset",
    "Resolution": ".headset",
    "device": ".headset",
    "MetricsSample": ".metrics",
    "OvrMetricsSampler": ".metrics",
    "RenderCostProfile": ".rendering",
    "RenderModel": ".rendering",
    "ResourceModel": ".resources",
    "ResourceProfile": ".resources",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
