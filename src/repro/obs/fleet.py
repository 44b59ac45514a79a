"""Fleet-level metric aggregation: fold N worker registries into one.

A campaign scatters one :class:`~repro.obs.metrics.MetricsRegistry` per
task across worker processes; this module defines the *mergeable
serialized form* of a registry and the fold that combines any number of
them into a single campaign-level registry — with the same
shard-count-invariance guarantee :mod:`repro.scale.shard` proved for
room shards:

* **counters sum** — exactly, via :class:`fractions.Fraction` (every
  float is a binary rational, so the sum is associative and
  commutative; the final ``float()`` rounds once, correctly);
* **gauges resolve by labeled last-writer** under the total order
  ``(seq, source, value)``, where ``seq`` is the gauge's per-process
  write counter and ``source`` is the originating task id — taking the
  max is associative, so any fold shape picks the same writer;
* **histograms merge bucket-wise** — bucket counts and event counts
  add as integers, sums add as Fractions, min/max combine as min/max.

Folding K worker dumps therefore yields a byte-identical aggregate for
*any* partition of the dumps and *any* fold order, which is what lets
``campaign_registry.json`` be compared across worker counts in tests.

Wall-clock metrics (kernel callback wall-time histograms) are
inherently nondeterministic run-to-run; :func:`is_deterministic_metric`
marks them and the canonical dump excludes them by default.
"""

from __future__ import annotations

import json
import os
import typing
from fractions import Fraction

from .metrics import MetricsRegistry

#: Bumped when the mergeable serialization below changes shape.
FLEET_SCHEMA = 1

#: Metric-name substrings marking values that depend on wall-clock time
#: (and are therefore not reproducible run-to-run).  Excluded from the
#: canonical (byte-comparable) aggregate by default.
NONDETERMINISTIC_MARKERS = ("wall",)

#: Filenames in a campaign metrics directory that are not task dumps.
INDEX_FILENAME = "index.json"
REGISTRY_FILENAME = "campaign_registry.json"


def is_deterministic_metric(name: str) -> bool:
    """Whether a metric is reproducible across runs of the same plan."""
    return not any(marker in name for marker in NONDETERMINISTIC_MARKERS)


def _frac(value: float) -> Fraction:
    """Exact rational form of a float (floats are binary rationals)."""
    return Fraction(value)


def _frac_pair(fraction: Fraction) -> typing.List[int]:
    return [fraction.numerator, fraction.denominator]


def _labels_list(labels: tuple) -> list:
    return [[name, value] for name, value in labels]


def _labels_tuple(labels: typing.Iterable) -> tuple:
    return tuple((name, value) for name, value in labels)


def _sort_key(entry: dict) -> tuple:
    # Label values may mix types across families; a JSON rendering is a
    # total order that never raises.
    return (entry["name"], json.dumps(entry["labels"]))


def registry_fleet_dump(registry: MetricsRegistry, source: str = "") -> dict:
    """Serialize one registry into the mergeable fleet form.

    Unlike ``MetricsRegistry.dump()`` (a human/JSON summary), this form
    carries everything a lossless merge needs: exact counter fractions,
    gauge write sequence numbers, and full histogram bucket vectors.
    """
    counters = []
    for counter in registry.counters():
        counters.append(
            {
                "name": counter.name,
                "labels": _labels_list(counter.labels),
                "value": counter.value,
                "frac": _frac_pair(_frac(counter.value)),
            }
        )
    gauges = []
    for gauge in registry.gauges():
        gauges.append(
            {
                "name": gauge.name,
                "labels": _labels_list(gauge.labels),
                "value": gauge.read(),
                "seq": gauge.seq,
                "source": source,
            }
        )
    histograms = []
    for hist in registry.histograms():
        histograms.append(
            {
                "name": hist.name,
                "labels": _labels_list(hist.labels),
                "bounds": list(hist.bounds),
                "bucket_counts": list(hist.bucket_counts),
                "count": hist.count,
                "sum": hist.sum,
                "frac": _frac_pair(_frac(hist.sum)),
                "min": hist.min if hist.count else None,
                "max": hist.max if hist.count else None,
            }
        )
    counters.sort(key=_sort_key)
    gauges.sort(key=_sort_key)
    histograms.sort(key=_sort_key)
    return {
        "schema": FLEET_SCHEMA,
        "source": source,
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    }


class FleetAggregator:
    """Folds fleet dumps (or live registries) into one campaign registry.

    The fold is associative and commutative: dumps may be added in any
    order, and aggregators may themselves be merged (via the dump of one
    into another) without changing the final canonical bytes.
    """

    def __init__(self) -> None:
        # key -> Fraction
        self._counters: typing.Dict[tuple, Fraction] = {}
        # key -> (seq, source, value): max is the winning writer
        self._gauges: typing.Dict[tuple, tuple] = {}
        # key -> {bounds, bucket_counts, count, sum(Fraction), min, max}
        self._histograms: typing.Dict[tuple, dict] = {}
        self.n_dumps = 0

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------
    def add_registry(self, registry: MetricsRegistry, source: str = "") -> None:
        self.add_dump(registry_fleet_dump(registry, source=source))

    def add_dump(self, dump: typing.Optional[dict]) -> None:
        if not dump:
            return
        self.n_dumps += 1
        for entry in dump.get("counters", ()):
            key = (entry["name"], _labels_tuple(entry["labels"]))
            frac = (
                Fraction(*entry["frac"])
                if entry.get("frac") is not None
                else _frac(entry["value"])
            )
            self._counters[key] = self._counters.get(key, Fraction(0)) + frac
        for entry in dump.get("gauges", ()):
            key = (entry["name"], _labels_tuple(entry["labels"]))
            candidate = (
                entry.get("seq", 0),
                entry.get("source", ""),
                entry["value"],
            )
            current = self._gauges.get(key)
            if current is None or candidate > current:
                self._gauges[key] = candidate
        for entry in dump.get("histograms", ()):
            key = (entry["name"], _labels_tuple(entry["labels"]))
            bounds = tuple(entry["bounds"])
            frac = (
                Fraction(*entry["frac"])
                if entry.get("frac") is not None
                else _frac(entry["sum"])
            )
            current = self._histograms.get(key)
            if current is None:
                self._histograms[key] = {
                    "bounds": bounds,
                    "bucket_counts": list(entry["bucket_counts"]),
                    "count": entry["count"],
                    "sum": frac,
                    "min": entry["min"],
                    "max": entry["max"],
                }
                continue
            if current["bounds"] != bounds:
                raise ValueError(
                    f"histogram {entry['name']!r} bucket bounds differ "
                    f"across dumps: {current['bounds']} vs {bounds}"
                )
            current["bucket_counts"] = [
                a + b
                for a, b in zip(current["bucket_counts"], entry["bucket_counts"])
            ]
            current["count"] += entry["count"]
            current["sum"] += frac
            current["min"] = _merge_extreme(current["min"], entry["min"], min)
            current["max"] = _merge_extreme(current["max"], entry["max"], max)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def dump(self, deterministic_only: bool = False) -> dict:
        """The merged state in the same mergeable fleet form."""

        def keep(name: str) -> bool:
            return not deterministic_only or is_deterministic_metric(name)

        counters = [
            {
                "name": name,
                "labels": _labels_list(labels),
                "value": float(frac),
                "frac": _frac_pair(frac),
            }
            for (name, labels), frac in self._counters.items()
            if keep(name)
        ]
        gauges = [
            {
                "name": name,
                "labels": _labels_list(labels),
                "value": value,
                "seq": seq,
                "source": source,
            }
            for (name, labels), (seq, source, value) in self._gauges.items()
            if keep(name)
        ]
        histograms = [
            {
                "name": name,
                "labels": _labels_list(labels),
                "bounds": list(state["bounds"]),
                "bucket_counts": list(state["bucket_counts"]),
                "count": state["count"],
                "sum": float(state["sum"]),
                "frac": _frac_pair(state["sum"]),
                "min": state["min"],
                "max": state["max"],
            }
            for (name, labels), state in self._histograms.items()
            if keep(name)
        ]
        counters.sort(key=_sort_key)
        gauges.sort(key=_sort_key)
        histograms.sort(key=_sort_key)
        return {
            "schema": FLEET_SCHEMA,
            "n_dumps": self.n_dumps,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def canonical_bytes(self, deterministic_only: bool = True) -> bytes:
        """Byte-comparable form of the aggregate (sorted, compact JSON).

        ``n_dumps`` is excluded: it counts fold *steps*, which differ
        between a flat fold and a partitioned fold of the same dumps.
        """
        dump = self.dump(deterministic_only=deterministic_only)
        dump.pop("n_dumps", None)
        return json.dumps(dump, sort_keys=True, separators=(",", ":")).encode()

    def merged_registry(self) -> MetricsRegistry:
        """Materialize the aggregate as a real MetricsRegistry (so the
        existing exporters — Prometheus text, tables — apply as-is)."""
        registry = MetricsRegistry()
        for (name, labels), frac in sorted(
            self._counters.items(), key=lambda item: (item[0][0], str(item[0][1]))
        ):
            registry.counter(name, **dict(labels)).value = float(frac)
        for (name, labels), (seq, _source, value) in sorted(
            self._gauges.items(), key=lambda item: (item[0][0], str(item[0][1]))
        ):
            gauge = registry.gauge(name, **dict(labels))
            gauge.set(value)
            gauge.seq = seq
        for (name, labels), state in sorted(
            self._histograms.items(), key=lambda item: (item[0][0], str(item[0][1]))
        ):
            hist = registry.histogram(name, buckets=state["bounds"], **dict(labels))
            hist.bucket_counts = list(state["bucket_counts"])
            hist.count = state["count"]
            hist.sum = float(state["sum"])
            if state["count"]:
                hist.min = state["min"]
                hist.max = state["max"]
        return registry

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)


def _merge_extreme(current, incoming, combine):
    if incoming is None:
        return current
    if current is None:
        return incoming
    return combine(current, incoming)


# ----------------------------------------------------------------------
# Campaign metrics directories
# ----------------------------------------------------------------------
def aggregate_metrics_dir(metrics_dir: str) -> FleetAggregator:
    """Fold every per-task dump in a campaign metrics directory.

    Reads the ``registry`` (fleet-form) section of each task dump that
    :func:`repro.runner.run_campaign` wrote.  The fold order is the
    sorted filename order, but the result is order-invariant anyway.
    """
    aggregator = FleetAggregator()
    for filename in sorted(os.listdir(metrics_dir)):
        if not filename.endswith(".json"):
            continue
        if filename in (INDEX_FILENAME, REGISTRY_FILENAME):
            continue
        with open(os.path.join(metrics_dir, filename)) as handle:
            dump = json.load(handle)
        aggregator.add_dump(dump.get("registry"))
    return aggregator


def write_campaign_registry(
    aggregator: FleetAggregator,
    path: str,
    campaign_id: typing.Optional[str] = None,
) -> None:
    """Write the canonical aggregate (deterministic metrics only).

    The file is byte-identical for any worker count / shard partition
    of the same plan; ``campaign_id`` is itself plan-derived.
    """
    dump = aggregator.dump(deterministic_only=True)
    dump.pop("n_dumps", None)
    if campaign_id is not None:
        dump["campaign_id"] = campaign_id
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(dump, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")


def load_campaign_registry(path: str) -> FleetAggregator:
    """Reload a ``campaign_registry.json`` into an aggregator."""
    with open(path) as handle:
        dump = json.load(handle)
    aggregator = FleetAggregator()
    aggregator.add_dump(dump)
    return aggregator
