"""Discrete-event simulation kernel used by every substrate."""

from .._lazy import lazy_exports

_EXPORTS = {
    "ScheduledEvent": ".events",
    "Signal": ".events",
    "SimulationError": ".kernel",
    "Simulator": ".kernel",
    "Process": ".process",
    "ProcessKilled": ".process",
    "Timeout": ".process",
    "Wait": ".process",
    "RandomStreams": ".rng",
    "derive_seed": ".rng",
    "TickScheduler": ".ticks",
    "TickTimer": ".ticks",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
