"""repro.obs — simulation-native observability for the whole stack.

The paper's method is observation (Wireshark flow tables, OVR Metrics
samplers, per-channel throughput series); this package points the same
instruments at the reproduction itself:

* :mod:`.metrics` — counters/gauges/histograms in a per-simulation
  :class:`MetricsRegistry` (campaign workers never share state);
* :mod:`.trace` — span timing and per-packet hop traces
  (enqueue -> transit -> deliver/drop) in a bounded buffer;
* :mod:`.snapshot` — a sim-time :class:`PeriodicSnapshotter` turning
  gauges/counters into time series compatible with
  :mod:`repro.capture.timeseries`;
* :mod:`.export` — JSONL (campaign-telemetry shaped), Prometheus text,
  and human tables;
* :mod:`.context` — collection scoped to the running thread, so the
  campaign runner and CLI can observe experiments that build their own
  simulators.

Observability is **opt-in**: by default every Simulator carries the
shared no-op :data:`NULL_OBS`, so instrumented hot paths cost a single
attribute check and results are byte-identical with or without it.

Quickstart::

    from repro.obs import collect
    from repro.measure.experiment import run_experiment

    with collect() as collector:
        run_experiment("forwarding")
    dump = collector.merged_dump()
    print(dump["metrics"]["counters"][:3])
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "NULL_OBS": ".context",
    "ObsCollector": ".context",
    "Observability": ".context",
    "active_collector": ".context",
    "collect": ".context",
    "obs_of": ".context",
    "observability_for_new_simulator": ".context",
    "escape_label_value": ".export",
    "read_jsonl": ".export",
    "read_telemetry_jsonl": ".export",
    "render": ".export",
    "sanitize_metric_name": ".export",
    "to_prometheus": ".export",
    "write_json": ".export",
    "write_jsonl": ".export",
    "FleetAggregator": ".fleet",
    "aggregate_metrics_dir": ".fleet",
    "is_deterministic_metric": ".fleet",
    "load_campaign_registry": ".fleet",
    "registry_fleet_dump": ".fleet",
    "write_campaign_registry": ".fleet",
    "active_live_server": ".context",
    "LiveObsServer": ".live",
    "live_server": ".live",
    "build_campaign_report": ".report",
    "write_campaign_report": ".report",
    "NULL_REGISTRY": ".metrics",
    "Counter": ".metrics",
    "Gauge": ".metrics",
    "Histogram": ".metrics",
    "MetricsRegistry": ".metrics",
    "NullRegistry": ".metrics",
    "format_labels": ".metrics",
    "PeriodicSnapshotter": ".snapshot",
    "NULL_TRACER": ".trace",
    "NullTracer": ".trace",
    "Span": ".trace",
    "Tracer": ".trace",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
