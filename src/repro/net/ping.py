"""ICMP and TCP ping, as used in Sec. 4.2 to probe platform servers.

``ProbeTool.ping_process`` / ``tcp_ping_process`` are generator processes
to be started with ``Simulator.spawn``; the process return value is a
:class:`PingResult`.
"""

from __future__ import annotations

import dataclasses
import itertools
import statistics
import typing

from ..simcore import Signal, Timeout, Wait
from .address import Endpoint, IPAddress
from .node import Host
from .packet import IP_HEADER, Packet, Protocol, icmp_packet_size

_probe_tokens = itertools.count(1)


@dataclasses.dataclass
class PingResult:
    """Aggregate result of a ping run."""

    target: IPAddress
    sent: int
    received: int
    rtts_s: typing.List[float]

    @property
    def loss_rate(self) -> float:
        if self.sent == 0:
            return 0.0
        return 1.0 - self.received / self.sent

    @property
    def reachable(self) -> bool:
        return self.received > 0

    @property
    def avg_rtt_ms(self) -> typing.Optional[float]:
        if not self.rtts_s:
            return None
        return 1000.0 * statistics.fmean(self.rtts_s)

    @property
    def std_rtt_ms(self) -> float:
        if len(self.rtts_s) < 2:
            return 0.0
        return 1000.0 * statistics.stdev(self.rtts_s)


class ProbeTool:
    """Ping utilities bound to one host (a vantage point)."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self.sim = host.sim

    # ------------------------------------------------------------------
    # Probe primitives
    # ------------------------------------------------------------------
    def _send_probe(
        self, packet_factory, token, timeout: float
    ) -> typing.Generator:
        """Send one probe, wait for reply or timeout; yield from this.

        Returns the RTT in seconds, or None on timeout.
        """
        signal = Signal(f"probe-{token}")
        sent_at = self.sim.now
        state = {"resolved": False}

        def on_reply(_reply_packet) -> None:
            if state["resolved"]:
                return
            state["resolved"] = True
            signal.fire(self.sim.now - sent_at)

        def on_timeout() -> None:
            if state["resolved"]:
                return
            state["resolved"] = True
            self.host.probe_waiters.pop(token, None)
            signal.fire(None)

        self.host.probe_waiters[token] = on_reply
        self.host.send(packet_factory())
        self.sim.schedule(timeout, on_timeout)
        rtt = yield Wait(signal)
        return rtt

    def _icmp_packet(self, dst_ip: IPAddress, token, ttl: int = 64) -> Packet:
        return Packet(
            src=Endpoint(self.host.ip, 0),
            dst=Endpoint(dst_ip, 0),
            protocol=Protocol.ICMP,
            size=icmp_packet_size(),
            payload=("echo-request", token),
            created_at=self.sim.now,
            ttl=ttl,
        )

    def _tcp_probe_packet(self, dst: Endpoint, token) -> Packet:
        return Packet(
            src=Endpoint(self.host.ip, 40000 + (token % 20000)),
            dst=dst,
            protocol=Protocol.TCP,
            size=IP_HEADER + 20,
            payload=("syn-probe", token),
            created_at=self.sim.now,
        )

    # ------------------------------------------------------------------
    # Public processes
    # ------------------------------------------------------------------
    def ping_process(
        self,
        dst_ip: IPAddress,
        count: int = 10,
        interval: float = 0.05,
        timeout: float = 1.0,
    ) -> typing.Generator:
        """ICMP echo probes; returns a :class:`PingResult`."""
        rtts = []
        for _ in range(count):
            token = next(_probe_tokens)
            rtt = yield from self._send_probe(
                lambda t=token: self._icmp_packet(dst_ip, t), token, timeout
            )
            if rtt is not None:
                rtts.append(rtt)
            yield Timeout(interval)
        return PingResult(dst_ip, count, len(rtts), rtts)

    def tcp_ping_process(
        self,
        dst: Endpoint,
        count: int = 10,
        interval: float = 0.05,
        timeout: float = 1.0,
    ) -> typing.Generator:
        """TCP SYN probes (used when ICMP is blocked, Sec. 4.2)."""
        rtts = []
        for _ in range(count):
            token = next(_probe_tokens)
            rtt = yield from self._send_probe(
                lambda t=token: self._tcp_probe_packet(dst, t), token, timeout
            )
            if rtt is not None:
                rtts.append(rtt)
            yield Timeout(interval)
        return PingResult(dst.ip, count, len(rtts), rtts)
