"""Span-style tracing and per-packet lifecycle traces.

Two event shapes share one bounded buffer:

* ``span`` — a timed region (kernel event dispatch, route builds,
  campaign tasks) with both sim-time and wall-time durations; and
* ``hop`` — one step of a packet's life at a link or server
  (``enqueue`` -> ``transit`` -> ``deliver`` / ``drop``), keyed by
  ``packet_id`` so the full path of any packet can be reassembled,
  exactly like following one flow through a Wireshark capture.

The buffer is bounded (``max_events``); once full, new events are
counted in ``dropped`` instead of growing memory without limit — a
long simulation emits millions of hops.  A record the full buffer
would drop is never built: no flow label, no record dict, no span, no
clock read — only its kind is counted.
"""

from __future__ import annotations

import time
import typing

#: Default trace-buffer bound; beyond it events are counted, not kept.
DEFAULT_MAX_EVENTS = 200_000


class Span:
    """A context manager timing one region in sim and wall time."""

    __slots__ = ("tracer", "name", "fields", "_wall0", "_sim0")

    def __init__(self, tracer: "Tracer", name: str, fields: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.fields = fields

    def __enter__(self) -> "Span":
        self._wall0 = time.perf_counter()
        self._sim0 = self.tracer.sim_now()
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer.emit(
            "span",
            name=self.name,
            wall_s=time.perf_counter() - self._wall0,
            sim_s=self.tracer.sim_now() - self._sim0,
            **self.fields,
        )


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Bounded buffer of structured trace events stamped with sim time."""

    enabled = True

    def __init__(
        self,
        sim: typing.Optional[object] = None,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> None:
        self.sim = sim
        self.max_events = max_events
        self.events: typing.List[dict] = []
        self.dropped = 0
        #: Per-kind breakdown of discarded records, so a truncated trace
        #: says *what* it lost (all hops? all spans?) instead of only
        #: how much.
        self.dropped_by_kind: typing.Dict[str, int] = {}

    def bind(self, sim) -> None:
        """Attach the simulator whose clock stamps events."""
        self.sim = sim

    def sim_now(self) -> float:
        return self.sim.now if self.sim is not None else 0.0

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def full(self) -> bool:
        """Whether the buffer is full, so new records are only counted."""
        return len(self.events) >= self.max_events

    def drop(self, kind: str) -> None:
        """Count one ``kind`` record that the full buffer does not keep."""
        self.dropped += 1
        self.dropped_by_kind[kind] = self.dropped_by_kind.get(kind, 0) + 1

    def emit(self, kind: str, **fields) -> None:
        if len(self.events) >= self.max_events:
            self.drop(kind)
            return
        record = {"t": self.sim_now(), "kind": kind}
        record.update(fields)
        self.events.append(record)

    def span(self, name: str, **fields) -> typing.Union[Span, _NullSpan]:
        """Time a region: ``with tracer.span("kernel.dispatch"): ...``.

        A span opened while the buffer has room is kept unless the
        buffer fills before it closes; one opened on a full buffer is
        counted as dropped here and times nothing.
        """
        if len(self.events) >= self.max_events:
            self.drop("span")
            return _NULL_SPAN
        return Span(self, name, fields)

    def packet_hop(self, hop: str, packet, where: str, **fields) -> None:
        """Record one lifecycle step of ``packet`` at ``where``."""
        if len(self.events) >= self.max_events:
            self.drop("hop")
            return
        self.emit(
            "hop",
            hop=hop,
            packet=packet.packet_id,
            where=where,
            flow=packet.flow_label,
            size=packet.size,
            **fields,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def select(self, kind: str) -> typing.List[dict]:
        return [event for event in self.events if event["kind"] == kind]

    def packet_trace(self, packet_id: int) -> typing.List[dict]:
        """Every hop event recorded for one packet, in emission order."""
        return [
            event
            for event in self.events
            if event["kind"] == "hop" and event.get("packet") == packet_id
        ]

    def span_profile(self) -> typing.List[dict]:
        """Wall-time totals per span name, heaviest first."""
        totals: typing.Dict[str, dict] = {}
        for event in self.events:
            if event["kind"] != "span":
                continue
            label = event.get("callback") or event["name"]
            row = totals.setdefault(
                label, {"name": label, "count": 0, "wall_s": 0.0, "sim_s": 0.0}
            )
            row["count"] += 1
            row["wall_s"] += event["wall_s"]
            row["sim_s"] += event["sim_s"]
        return sorted(totals.values(), key=lambda row: -row["wall_s"])

    def dump(self) -> dict:
        return {
            "events": list(self.events),
            "dropped": self.dropped,
            "dropped_by_kind": dict(sorted(self.dropped_by_kind.items())),
            "max_events": self.max_events,
        }

    def __len__(self) -> int:
        return len(self.events)


class NullTracer(Tracer):
    """No-op tracer; every emission is discarded before allocation."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(sim=None, max_events=0)

    def bind(self, sim) -> None:
        pass

    def emit(self, kind: str, **fields) -> None:
        pass

    def span(self, name: str, **fields) -> _NullSpan:
        return _NULL_SPAN

    def packet_hop(self, hop: str, packet, where: str, **fields) -> None:
        pass

    def dump(self) -> dict:
        return {"events": [], "dropped": 0, "dropped_by_kind": {}, "max_events": 0}


#: Shared no-op tracer used whenever observability is disabled.
NULL_TRACER = NullTracer()
