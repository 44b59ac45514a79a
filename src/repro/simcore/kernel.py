"""The discrete-event simulation kernel.

:class:`Simulator` owns the virtual clock, the event heap, and the random
streams. All substrates (network stack, devices, platform clients) hang
off one ``Simulator`` instance, so a whole testbed is reproducible from a
single seed.

The event heap holds plain tuples ``(time, priority, sequence, callback,
args, handle)`` so ``heapq`` sifting compares floats/ints in C; the
sequence is unique, so a comparison never reaches the callback.  Public
``schedule``/``schedule_at`` return a cancellable
:class:`~repro.simcore.events.ScheduledEvent` handle; internal hot paths
(:meth:`_schedule_callback` / :meth:`_schedule_callback_at`) skip the
handle allocation because they never cancel.  Cancelled entries are
skipped lazily at pop time and the heap is compacted in place when they
dominate it.

Observability hangs off the kernel too: ``sim.obs`` is an
:class:`~repro.obs.Observability` bundle (its registry and tracer are
what every instrumented layer writes into) — full, metrics-only
(``trace=False``), or the shared no-op ``NULL_OBS``.  Every live
registry gets the kernel's dispatch and cancellation counters, added
once per :meth:`Simulator.run` / :meth:`Simulator.step` call, and its
heap-depth and clock gauges.  Only a full bundle sets
``observe_kernel``: the kernel then also keeps a per-callback wall-time
profile — the first place to look when a campaign task is slow.  Either
way :meth:`Simulator.run` is one loop that picks the profiled or the
plain dispatch once, so an observed run dispatches exactly what an
unobserved one does.
"""

from __future__ import annotations

import heapq
import math
import time as _time
import typing

from ..obs.context import observability_for_new_simulator
from .events import ScheduledEvent, Signal
from .process import Process
from .rng import RandomStreams
from .ticks import TickScheduler

#: Compact the heap once this many cancelled entries linger *and* they
#: make up at least half of it (amortised O(1) per cancellation).
_COMPACT_MIN_CANCELLED = 64


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. scheduling in the past)."""


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Root seed for every named random stream (see :class:`RandomStreams`).
    obs:
        Observability bundle.  ``None`` (the default) resolves via
        :mod:`repro.obs.context`: an enabled instance while a collector
        is active (campaign workers, ``--metrics-out`` CLI runs), the
        shared no-op otherwise.  Pass an
        :class:`~repro.obs.Observability` to opt in explicitly.
    """

    def __init__(self, seed: int = 0, obs=None) -> None:
        self._now = 0.0
        self._heap: list[tuple] = []
        self._sequence = 0
        self._cancelled_in_heap = 0
        self._ticks = None
        self.streams = RandomStreams(seed)
        self.processes: list[Process] = []
        self.event_count = 0
        if obs is None:
            obs = observability_for_new_simulator()
        self.obs = obs
        obs.bind(self)
        registry = obs.registry
        #: Added to once per run()/step() call; no-ops on NULL_OBS.
        self._events_counter = registry.counter("sim.events_dispatched")
        self._cancelled_counter = registry.counter("sim.events_cancelled")
        registry.gauge("sim.heap_depth", fn=self.pending_events)
        registry.gauge("sim.now", fn=lambda: self._now)
        #: Cached flag so the unprofiled path is one local check.
        #: Metrics-only bundles keep layer instruments live but opt out
        #: of per-event kernel profiling via ``observe_kernel``.
        self._obs_enabled = obs.observe_kernel
        if self._obs_enabled:
            self._registry = registry
            #: ``sim.callback_wall_s`` histograms by callback label, so a
            #: dispatch skips the registry's label sort and key build.
            self._callback_wall: typing.Dict[str, typing.Any] = {}

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def rng(self, name: str):
        """Return the named deterministic random stream."""
        return self.streams.stream(name)

    @property
    def ticks(self):
        """The shared coarse tick scheduler (created on first use)."""
        if self._ticks is None:
            self._ticks = TickScheduler(self)
        return self._ticks

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: typing.Callable[..., None],
        *args,
        priority: int = 0,
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if not (delay >= 0.0 and math.isfinite(delay)):
            # A NaN delay would silently corrupt heapq ordering (every
            # comparison is False), so reject it loudly.
            if not math.isfinite(delay):
                raise SimulationError(f"delay must be finite, got {delay}")
            raise SimulationError(f"cannot schedule {delay}s in the past")
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: typing.Callable[..., None],
        *args,
        priority: int = 0,
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite, got {time}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        self._sequence += 1
        event = ScheduledEvent(time, priority, self._sequence, callback, args, sim=self)
        heapq.heappush(
            self._heap, (time, priority, self._sequence, callback, args, event)
        )
        return event

    def _schedule_callback(self, delay: float, callback, args: tuple = ()) -> None:
        """Hot-path scheduling: no handle, no cancellation, trusted delay."""
        self._sequence += 1
        heapq.heappush(
            self._heap, (self._now + delay, 0, self._sequence, callback, args, None)
        )

    def _schedule_callback_at(self, time: float, callback, args: tuple = ()) -> None:
        """Hot-path absolute-time scheduling (see :meth:`_schedule_callback`)."""
        self._sequence += 1
        heapq.heappush(self._heap, (time, 0, self._sequence, callback, args, None))

    def spawn(self, generator: typing.Generator, name: str = "") -> Process:
        """Start a generator as a simulation process."""
        process = Process(self, generator, name=name)
        self.processes.append(process)
        return process.start()

    def signal(self, name: str = "") -> Signal:
        """Create a named :class:`Signal` bound to no particular component."""
        return Signal(name)

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """A live handle was cancelled; compact the heap if they dominate."""
        self._cancelled_in_heap += 1
        if (
            self._cancelled_in_heap >= _COMPACT_MIN_CANCELLED
            and self._cancelled_in_heap * 2 >= len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (in place: the heap list
        identity is load-bearing for the run loop and obs gauges)."""
        self._heap[:] = [
            entry
            for entry in self._heap
            if entry[5] is None or not entry[5].cancelled
        ]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next scheduled event; return False when none remain."""
        heap = self._heap
        events = cancelled = 0
        try:
            while heap:
                entry = heapq.heappop(heap)
                handle = entry[5]
                if handle is not None:
                    if handle.cancelled:
                        self._cancelled_in_heap -= 1
                        cancelled += 1
                        continue
                    # Fired: a later cancel() must not count against the heap.
                    handle._sim = None
                self._now = entry[0]
                self.event_count += 1
                events = 1
                if self._obs_enabled:
                    self._dispatch_observed(entry)
                else:
                    entry[3](*entry[4])
                return True
            return False
        finally:
            self._events_counter.inc(events)
            self._cancelled_counter.inc(cancelled)

    def _dispatch_observed(self, entry: tuple) -> None:
        """Dispatch one event under the tracer and wall-time profile.

        Once the trace buffer is full the ``kernel.dispatch`` span is
        only counted as dropped, never built.
        """
        callback = entry[3]
        label = getattr(callback, "__qualname__", None) or repr(callback)
        tracer = self.obs.tracer
        if tracer.full():
            tracer.drop("span")
            started = _time.perf_counter()
            callback(*entry[4])
        else:
            with tracer.span("kernel.dispatch", callback=label):
                started = _time.perf_counter()
                callback(*entry[4])
        elapsed = _time.perf_counter() - started
        histogram = self._callback_wall.get(label)
        if histogram is None:
            # Created once the label's first dispatch has returned, so
            # a callback that raises registers no histogram.
            histogram = self._callback_wall[label] = self._registry.histogram(
                "sim.callback_wall_s", callback=label
            )
        histogram.observe(elapsed)

    def run(self, until: typing.Optional[float] = None) -> float:
        """Run events until the heap drains or the clock passes ``until``.

        Returns the simulation time when execution stopped. When ``until``
        is given the clock is advanced to exactly ``until`` even if the
        last event fired earlier, matching wall-clock experiment windows.
        Observed and unobserved runs share this loop: whether a dispatch
        is profiled is decided once, before it starts.
        """
        heap = self._heap
        heappop = heapq.heappop
        observed = self._obs_enabled
        dispatch = self._dispatch_observed
        limit = math.inf if until is None else until
        events = cancelled = 0
        try:
            while heap and heap[0][0] <= limit:
                entry = heappop(heap)
                handle = entry[5]
                if handle is not None:
                    if handle.cancelled:
                        self._cancelled_in_heap -= 1
                        cancelled += 1
                        continue
                    handle._sim = None
                self._now = entry[0]
                events += 1
                if observed:
                    dispatch(entry)
                else:
                    entry[3](*entry[4])
        finally:
            # Counted even if a callback raises.
            self.event_count += events
            self._events_counter.inc(events)
            self._cancelled_counter.inc(cancelled)
        if until is not None:
            self._now = max(self._now, until)
        return self._now

    def pending_events(self) -> int:
        """Number of scheduled (non-cancelled) events still in the heap.

        ``_cancelled_in_heap`` tracks exactly the cancelled entries that
        have not yet been popped or compacted away, so the live count is
        O(1) — no heap scan.
        """
        return len(self._heap) - self._cancelled_in_heap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self._now:.6f}, pending={self.pending_events()})"
