"""Process-local observability collection for whole experiments.

Experiments build their own :class:`~repro.simcore.kernel.Simulator`
instances internally, so callers (the campaign runner, the CLI) cannot
hand an :class:`Observability` to them directly.  Instead they activate
a collector::

    with collect() as collector:
        result = run_experiment("throughput")
    dump = collector.merged_dump()

While a collector is active, every ``Simulator()`` constructed in this
process (the worker running the task) gets an *enabled* observability
instance and registers it with the collector — a full one, or a
metrics-only one under ``collect(trace=False)``; with no collector active,
simulators default to the shared no-op :data:`NULL_OBS` and the whole
layer costs one attribute check per call site.  Collection is
process-local state, which is exactly the isolation the campaign
executor needs: each worker process collects only its own task.
"""

from __future__ import annotations

import contextlib
import typing

from .metrics import NULL_REGISTRY, MetricsRegistry
from .trace import NULL_TRACER, Tracer

_ACTIVE_COLLECTOR: typing.Optional["ObsCollector"] = None
#: The :class:`~repro.obs.live.LiveObsServer` that campaigns feed, set by
#: :func:`repro.obs.live.live_server`.  It lives here so that checking
#: for it imports no HTTP server.
_ACTIVE_LIVE_SERVER = None


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


def MetricsOnlyObservability() -> Observability:
    """A metrics-only bundle: ``Observability(trace=False)``."""
    return Observability(trace=False)


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

    def fleet_dump(self, source: str = "") -> dict:
        """The mergeable (fleet-form) aggregate of every collected
        registry — what campaign workers ship for cross-worker
        aggregation (:mod:`repro.obs.fleet`)."""
        from .fleet import FleetAggregator

        aggregator = FleetAggregator()
        for obs in self.observabilities:
            aggregator.add_registry(obs.registry, source=source)
        return aggregator.dump()

    def merged_dump(self) -> dict:
        """A single-simulation-shaped dump; most tasks build exactly one
        Simulator, and for those this is just its dump."""
        if len(self.observabilities) == 1:
            return self.observabilities[0].dump()
        metrics = {"counters": [], "gauges": [], "histograms": []}
        events: typing.List[dict] = []
        dropped = 0
        dropped_by_kind: typing.Dict[str, int] = {}
        for obs in self.observabilities:
            sub = obs.dump()
            for kind in metrics:
                metrics[kind].extend(sub["metrics"][kind])
            events.extend(sub["trace"]["events"])
            dropped += sub["trace"]["dropped"]
            for kind, count in sub["trace"].get("dropped_by_kind", {}).items():
                dropped_by_kind[kind] = dropped_by_kind.get(kind, 0) + count
        return {
            "metrics": metrics,
            "trace": {
                "events": events,
                "dropped": dropped,
                "dropped_by_kind": dict(sorted(dropped_by_kind.items())),
                "max_events": None,
            },
            "n_simulations": len(self.observabilities),
        }


def active_collector() -> typing.Optional[ObsCollector]:
    return _ACTIVE_COLLECTOR


def observability_for_new_simulator():
    """What ``Simulator.__init__`` uses when no obs was passed."""
    if _ACTIVE_COLLECTOR is not None:
        return _ACTIVE_COLLECTOR.new_observability()
    return NULL_OBS


@contextlib.contextmanager
def collect(max_trace_events: typing.Optional[int] = None, trace: bool = True):
    """Enable observability for every Simulator built in this block
    (metrics only with ``trace=False``)."""
    global _ACTIVE_COLLECTOR
    previous = _ACTIVE_COLLECTOR
    collector = ObsCollector(max_trace_events=max_trace_events, trace=trace)
    _ACTIVE_COLLECTOR = collector
    try:
        yield collector
    finally:
        _ACTIVE_COLLECTOR = previous


def active_live_server():
    """The live server the current campaign should feed, if any."""
    return _ACTIVE_LIVE_SERVER
