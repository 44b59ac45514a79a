"""Shared coarse tick scheduler for periodic timers.

Per-user periodic senders (avatar updates, voice frames, keepalives —
dozens per simulated user) used to run as one generator process each,
paying a kernel heap push/pop plus a ``Timeout`` allocation and two
generator switches per firing.  :class:`TickScheduler` batches them: all
periodic timers live in one internal tuple heap, and the kernel sees a
single armed event per distinct firing time.  At that event every due
timer fires back-to-back in ``(next_time, registration sequence)``
order — the same relative order the per-process version produced, which
keeps shared-RNG draw sequences (e.g. the forwarding server's
processing-delay stream) byte-identical.

A timer's callback may return ``None`` (re-fire after its fixed
interval) or a float (the next delay in seconds — used by jittered
senders such as the report loop, whose interval is drawn per firing).
Cancellation is a flag checked at fire time; stale kernel armings are
tolerated and ignored.
"""

from __future__ import annotations

import heapq
import typing


class TickTimer:
    """Handle to one periodic timer registered on a :class:`TickScheduler`."""

    __slots__ = ("callback", "interval", "next_time", "cancelled")

    def __init__(self, callback: typing.Callable, interval: float) -> None:
        self.callback = callback
        self.interval = interval
        self.next_time = 0.0
        self.cancelled = False

    def cancel(self) -> None:
        """Stop the timer; it never fires again."""
        self.cancelled = True

    @property
    def active(self) -> bool:
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else f"next={self.next_time:.6f}"
        return f"TickTimer({getattr(self.callback, '__qualname__', self.callback)}, {state})"


class TickScheduler:
    """Coalesces periodic timers into one kernel event per firing time."""

    __slots__ = ("sim", "_heap", "_sequence", "_armed_for")

    def __init__(self, sim) -> None:
        self.sim = sim
        self._heap: list[tuple] = []  # (next_time, sequence, timer)
        self._sequence = 0
        self._armed_for: typing.Optional[float] = None

    def call_every(
        self,
        interval: float,
        callback: typing.Callable,
        first_delay: typing.Optional[float] = None,
    ) -> TickTimer:
        """Register ``callback()`` every ``interval`` seconds.

        The first firing happens after ``first_delay`` (default: one
        ``interval``).  The callback may return a float to override the
        delay until its next firing.
        """
        if interval <= 0:
            raise ValueError(f"tick interval must be positive, got {interval}")
        delay = interval if first_delay is None else first_delay
        if delay < 0:
            raise ValueError(f"first_delay must be >= 0, got {delay}")
        timer = TickTimer(callback, interval)
        timer.next_time = self.sim.now + delay
        self._sequence += 1
        heapq.heappush(self._heap, (timer.next_time, self._sequence, timer))
        self._arm()
        return timer

    def __len__(self) -> int:
        """Number of live (non-cancelled) timers."""
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _arm(self) -> None:
        """Ensure a kernel event covers the earliest pending firing."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        if not heap:
            return
        head_time = heap[0][0]
        if self._armed_for is None or head_time < self._armed_for:
            self._armed_for = head_time
            self.sim._schedule_callback_at(head_time, self._fire, (head_time,))

    def _fire(self, armed_time: float) -> None:
        if armed_time != self._armed_for:
            return  # superseded by an earlier arming; nothing due here
        self._armed_for = None
        heap = self._heap
        now = self.sim.now
        heappop = heapq.heappop
        heappush = heapq.heappush
        while heap and heap[0][0] <= now:
            timer = heappop(heap)[2]
            if timer.cancelled:
                continue
            result = timer.callback()
            if timer.cancelled:
                continue  # the callback cancelled its own timer
            timer.next_time = now + (timer.interval if result is None else result)
            self._sequence += 1
            heappush(heap, (timer.next_time, self._sequence, timer))
        self._arm()
