"""Discrete-event simulation kernel used by every substrate."""

from .events import ScheduledEvent, Signal
from .kernel import SimulationError, Simulator
from .process import Process, ProcessKilled, Timeout, Wait
from .rng import RandomStreams, derive_seed
from .ticks import TickScheduler, TickTimer

__all__ = [
    "ScheduledEvent",
    "Signal",
    "TickScheduler",
    "TickTimer",
    "SimulationError",
    "Simulator",
    "Process",
    "ProcessKilled",
    "Timeout",
    "Wait",
    "RandomStreams",
    "derive_seed",
]
