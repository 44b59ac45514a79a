"""Unidirectional links with transmission delay, queues, and taps.

A :class:`Link` connects two nodes in one direction. It models:

* serialization delay (``size * 8 / bandwidth``),
* propagation delay (from the geographic model or set explicitly),
* a drop-tail FIFO queue bounded in bytes,
* an optional :class:`~repro.net.netem.NetemQdisc` (Sec. 8 disruptions),
* optional capture taps (the Wireshark vantage point of Sec. 3.2).

The datapath is event-minimal: because the queue is FIFO and the wire
serves one packet at a time, each packet's transmission start is just
``max(now, busy_until)`` — so enqueue computes the delivery time in
closed form and schedules exactly one kernel event (the delivery)
instead of a transmit-completion wakeup per packet.  Serialization
times are memoized per packet size with the exact original expression,
keeping delivery timestamps bit-identical to the event-per-stage model.
"""

from __future__ import annotations

import collections
import typing

from ..obs.context import obs_of
from .netem import NetemQdisc
from .packet import Packet

#: Default queue depth — a few dozen MTUs, typical for a WiFi AP.
DEFAULT_QUEUE_BYTES = 120_000


class Link:
    """One direction of a point-to-point link between two nodes."""

    __slots__ = (
        # Instance dict retained: links are few and tests/tools override
        # behaviour per-instance (e.g. a lossy `send`); the hot fields
        # below still resolve through slots.
        "__dict__",
        "sim",
        "src",
        "dst",
        "bandwidth_bps",
        "delay_s",
        "jitter_s",
        "queue_bytes",
        "name",
        "_rng",
        "_last_delivery_at",
        "qdisc",
        "_taps",
        "_pending",
        "_backlog_bytes",
        "_serializing",
        "_busy_until",
        "_tx_cache",
        "delivered_packets",
        "delivered_bytes",
        "dropped_packets",
        "up",
        "down_dropped_packets",
        "_obs",
        "_obs_enabled",
        "_hops",
        "_flow_bytes",
        "_dst_receive",
        "_dst_terminates",
    )

    def __init__(
        self,
        sim,
        src,
        dst,
        bandwidth_bps: float,
        delay_s: float,
        queue_bytes: int = DEFAULT_QUEUE_BYTES,
        name: str = "",
        jitter_s: float = 0.0,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        if delay_s < 0:
            raise ValueError(f"delay must be >= 0, got {delay_s}")
        if jitter_s < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter_s}")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        #: Per-packet propagation jitter (std of a half-normal draw);
        #: gives the small RTT standard deviations the paper's Table 2
        #: reports. Reordering is prevented by a FIFO delivery clamp.
        #: May be set after construction: the RNG stream is created
        #: lazily on the first jittered transmission (stream seeds
        #: derive from the link name alone, so laziness cannot change
        #: the draws).
        self.jitter_s = jitter_s
        self.queue_bytes = queue_bytes
        self.name = name or f"{src.name}->{dst.name}"
        self._rng = None
        self._last_delivery_at = 0.0
        self.qdisc: typing.Optional[NetemQdisc] = None
        self._taps: list[typing.Callable[[Packet, "Link"], None]] = []
        #: Accepted packets whose serialization lies in the future:
        #: (tx_start, tx_end, size).  Drained lazily — no wakeup events.
        self._pending: collections.deque = collections.deque()
        self._backlog_bytes = 0
        self._serializing: typing.Optional[tuple] = None
        self._busy_until = 0.0
        self._tx_cache: dict[int, float] = {}
        self.delivered_packets = 0
        self.delivered_bytes = 0
        self.dropped_packets = 0
        #: Administrative state (chaos faults flip this): a down link
        #: drops every offered packet at ingress.  Packets already
        #: serialized onto the wire still deliver — taking a link down
        #: cannot reach back into the propagation medium.
        self.up = True
        self.down_dropped_packets = 0
        self._obs = obs_of(sim)
        self._obs_enabled = self._obs.enabled
        #: The tracer hop records go to, or ``None`` under a bundle that
        #: keeps no trace (its null tracer would discard them).
        self._hops = self._obs.tracer if self._obs.tracer.enabled else None
        #: ``net.flow.bytes`` counters by 5-tuple, resolved on the first
        #: delivery of each flow.
        self._flow_bytes: dict = {}
        self._dst_receive = dst.receive
        #: Hosts terminate traffic (they expose ``addresses``); routers
        #: and APs forward it on.
        self._dst_terminates = hasattr(dst, "addresses")
        if self._obs_enabled:
            registry = self._obs.registry
            registry.gauge(
                "net.link.backlog_bytes", fn=lambda: self.backlog_bytes, link=self.name
            )
            registry.gauge(
                "net.link.delivered_bytes",
                fn=lambda: self.delivered_bytes,
                link=self.name,
            )
            registry.gauge(
                "net.link.dropped_packets",
                fn=lambda: self.dropped_packets,
                link=self.name,
            )

    # ------------------------------------------------------------------
    # Attachments
    # ------------------------------------------------------------------
    def attach_qdisc(self, qdisc: NetemQdisc) -> NetemQdisc:
        """Install a netem qdisc at this link's egress."""
        self.qdisc = qdisc
        return qdisc

    def add_tap(self, tap: typing.Callable[[Packet, "Link"], None]) -> None:
        """Register a capture callback fired for every enqueued packet."""
        self._taps.append(tap)

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def set_up(self, up: bool) -> None:
        """Set the administrative state (``False`` drops all new traffic)."""
        self.up = up

    def send(self, packet: Packet) -> None:
        """Enqueue ``packet`` for transmission toward ``dst``."""
        if not self.up:
            self.dropped_packets += 1
            self.down_dropped_packets += 1
            if self._hops is not None:
                self._hops.packet_hop("drop", packet, self.name, reason="link-down")
            return
        if self.qdisc is not None and self.qdisc.active:
            self.qdisc.process(packet, self._enqueue)
        else:
            self._enqueue(packet)

    def _refresh(self, now: float) -> None:
        """Lazily retire pending entries whose transmission has started."""
        pending = self._pending
        while pending and pending[0][0] <= now:
            entry = pending.popleft()
            self._backlog_bytes -= entry[2]
            self._serializing = entry
        serializing = self._serializing
        if serializing is not None and serializing[1] <= now:
            self._serializing = None

    def _enqueue(self, packet: Packet) -> None:
        # Taps observe post-qdisc traffic: what a capture at the AP sees
        # once tc-netem shaping (Sec. 8) has been applied.
        for tap in self._taps:
            tap(packet, self)
        sim = self.sim
        now = sim._now
        if self._pending or self._serializing is not None:
            self._refresh(now)
        size = packet.size
        if self._backlog_bytes + size > self.queue_bytes:
            self.dropped_packets += 1
            if self._hops is not None:
                self._hops.packet_hop("drop", packet, self.name, reason="queue-full")
            return
        if self._hops is not None:
            self._hops.packet_hop(
                "enqueue", packet, self.name, backlog=self._backlog_bytes
            )
        tx_time = self._tx_cache.get(size)
        if tx_time is None:
            tx_time = self._tx_cache[size] = size * 8.0 / self.bandwidth_bps
        busy_until = self._busy_until
        tx_start = busy_until if busy_until > now else now
        tx_end = tx_start + tx_time
        self._busy_until = tx_end
        if tx_start > now:
            self._pending.append((tx_start, tx_end, size))
            self._backlog_bytes += size
        else:
            self._serializing = (tx_start, tx_end, size)
        jitter_s = self.jitter_s
        if jitter_s > 0.0:
            rng = self._rng
            if rng is None:
                rng = self._rng = sim.rng(f"link-jitter:{self.name}")
            jitter = abs(rng.gauss(0.0, jitter_s))
        else:
            jitter = 0.0
        delivery_at = max(
            tx_start + tx_time + self.delay_s + jitter,
            self._last_delivery_at,  # FIFO: jitter must not reorder
        )
        self._last_delivery_at = delivery_at
        sim._schedule_callback_at(delivery_at, self._deliver, (packet,))

    def _deliver(self, packet: Packet) -> None:
        self.delivered_packets += 1
        self.delivered_bytes += packet.size
        if self._hops is not None:
            self._hops.packet_hop("deliver", packet, self.name)
        if self._obs_enabled and self._dst_terminates:
            # Bytes by 5-tuple, counted once at the terminating host
            # rather than on every transit link.
            src, dst = packet.src, packet.dst
            flow = (src.ip.value, src.port, dst.ip.value, dst.port, packet.protocol)
            counter = self._flow_bytes.get(flow)
            if counter is None:
                counter = self._flow_bytes[flow] = self._obs.registry.counter(
                    "net.flow.bytes", flow=packet.flow_label
                )
            counter.inc(packet.size)
        self._dst_receive(packet, self)

    @property
    def backlog_bytes(self) -> int:
        """Bytes accepted but not yet being serialized (the queue)."""
        self._refresh(self.sim._now)
        return self._backlog_bytes

    @property
    def in_flight(self) -> int:
        """Packets queued or currently serializing on this link."""
        self._refresh(self.sim._now)
        return len(self._pending) + (1 if self._serializing is not None else 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.name}, {self.bandwidth_bps / 1e6:.1f}Mbps, {self.delay_s * 1000:.2f}ms)"
