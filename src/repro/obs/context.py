"""Observability collection for whole experiments, scoped to a context.

Experiments build their own :class:`~repro.simcore.kernel.Simulator`
instances internally, so callers (the campaign runner, the CLI) cannot
hand an :class:`Observability` to them directly.  Instead they activate
a collector::

    with collect() as collector:
        result = run_experiment("throughput")
    dump = collector.merged_dump()

While a collector is active, every ``Simulator()`` constructed in the
same context (the thread running the task, or the worker process it
was forked into) gets an *enabled* observability instance and registers
it with the collector — a full one, or a metrics-only one under
``collect(trace=False)``; with no collector active, simulators default
to the shared no-op :data:`NULL_OBS` and the whole layer costs one
attribute check per call site.

The active collector and the active live plane (:mod:`repro.obs.live`)
are context variables (:mod:`contextvars`), so each thread owns its
own: two serve jobs running on two worker threads collect only their
own simulations and feed only their own planes.
"""

from __future__ import annotations

import contextlib
import contextvars
import typing

from .metrics import NULL_REGISTRY, MetricsRegistry
from .trace import NULL_TRACER, Tracer

_COLLECTOR: contextvars.ContextVar = contextvars.ContextVar(
    "repro_obs_collector", default=None
)
#: The :class:`~repro.obs.live.LivePlane` that campaigns feed.  It lives
#: here so that checking for it imports no HTTP server.
_LIVE_PLANE: contextvars.ContextVar = contextvars.ContextVar(
    "repro_live_plane", default=None
)


class Observability:
    """Per-simulation bundle: one metrics registry and one tracer.

    One class covers the three configurations in use:

    * ``Observability()`` (or ``max_trace_events=N``) observes
      everything: a live registry, a bounded :class:`Tracer`, and a
      kernel that profiles every dispatch;
    * ``Observability(trace=False)`` keeps the registry live but holds
      :data:`NULL_TRACER`, so the kernel stays on its unprofiled
      dispatch.  Metric values are sim-deterministic, so anything
      scored off this registry (e.g. :mod:`repro.qoe`) matches what a
      fully observed run would score;
    * :data:`NULL_OBS` holds :data:`NULL_REGISTRY` and
      :data:`NULL_TRACER`: the shared, allocation-free default.

    ``enabled`` (layer instruments write) follows from the registry
    and ``observe_kernel`` (the kernel profiles each dispatch) from the
    tracer.
    """

    def __init__(
        self,
        max_trace_events: typing.Optional[int] = None,
        trace: bool = True,
        *,
        registry: typing.Optional[MetricsRegistry] = None,
    ) -> None:
        self.registry = MetricsRegistry() if registry is None else registry
        self.enabled = self.registry.enabled
        if not (trace and self.enabled):
            self.tracer = NULL_TRACER
        elif max_trace_events is None:
            self.tracer = Tracer()
        else:
            self.tracer = Tracer(max_events=max_trace_events)
        self.observe_kernel = self.tracer.enabled

    def bind(self, sim) -> None:
        """Attach the simulator whose clock stamps trace events."""
        self.tracer.bind(sim)

    def dump(self) -> dict:
        return {"metrics": self.registry.dump(), "trace": self.tracer.dump()}


#: Shared disabled observability — the default for every Simulator.
NULL_OBS = Observability(trace=False, registry=NULL_REGISTRY)


def obs_of(sim) -> Observability:
    """The observability bundle of ``sim`` (NULL_OBS for stub sims)."""
    return getattr(sim, "obs", NULL_OBS) or NULL_OBS


class ObsCollector:
    """Accumulates the observability of every Simulator built under it.

    ``max_trace_events`` and ``trace`` configure each bundle as
    :class:`Observability` does: ``trace=False`` collects metrics only.
    """

    def __init__(
        self, max_trace_events: typing.Optional[int] = None, trace: bool = True
    ) -> None:
        self.max_trace_events = max_trace_events
        self.trace = trace
        self.observabilities: typing.List[Observability] = []

    def new_observability(self) -> Observability:
        obs = Observability(max_trace_events=self.max_trace_events, trace=self.trace)
        self.observabilities.append(obs)
        return obs

    def _aggregate(self, source: str = ""):
        from .fleet import FleetAggregator

        aggregator = FleetAggregator()
        for obs in self.observabilities:
            aggregator.add_registry(obs.registry, source=source)
        return aggregator

    def fleet_dump(self, source: str = "") -> dict:
        """The mergeable (fleet-form) aggregate of every collected
        registry — what campaign workers ship for cross-worker
        aggregation (:mod:`repro.obs.fleet`)."""
        return self._aggregate(source).dump()

    def merged_dump(self) -> dict:
        """A single-simulation-shaped dump; most tasks build exactly one
        Simulator, and for those this is just its dump.  Several
        simulations' registries are folded into one, so each metric is
        listed once (counters add, histograms merge), and their trace
        events are concatenated."""
        if len(self.observabilities) == 1:
            return self.observabilities[0].dump()
        events: typing.List[dict] = []
        dropped = 0
        dropped_by_kind: typing.Dict[str, int] = {}
        for obs in self.observabilities:
            sub = obs.tracer.dump()
            events.extend(sub["events"])
            dropped += sub["dropped"]
            for kind, count in sub.get("dropped_by_kind", {}).items():
                dropped_by_kind[kind] = dropped_by_kind.get(kind, 0) + count
        return {
            "metrics": self._aggregate().merged_registry().dump(),
            "trace": {
                "events": events,
                "dropped": dropped,
                "dropped_by_kind": dict(sorted(dropped_by_kind.items())),
                "max_events": None,
            },
            "n_simulations": len(self.observabilities),
        }


def active_collector() -> typing.Optional[ObsCollector]:
    return _COLLECTOR.get()


def observability_for_new_simulator():
    """What ``Simulator.__init__`` uses when no obs was passed."""
    collector = _COLLECTOR.get()
    if collector is not None:
        return collector.new_observability()
    return NULL_OBS


@contextlib.contextmanager
def collect(max_trace_events: typing.Optional[int] = None, trace: bool = True):
    """Enable observability for every Simulator built in this block
    (metrics only with ``trace=False``)."""
    collector = ObsCollector(max_trace_events=max_trace_events, trace=trace)
    token = _COLLECTOR.set(collector)
    try:
        yield collector
    finally:
        _COLLECTOR.reset(token)


def active_live_server():
    """The live plane that campaigns run in this context feed, if any."""
    return _LIVE_PLANE.get()


@contextlib.contextmanager
def live_plane(plane):
    """Make ``plane`` the one that campaigns run in this block feed;
    ``live_plane(None)`` hides the active one."""
    token = _LIVE_PLANE.set(plane)
    try:
        yield plane
    finally:
        _LIVE_PLANE.reset(token)
