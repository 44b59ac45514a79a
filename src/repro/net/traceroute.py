"""Traceroute over the simulated topology.

Sec. 4.2 combines ping and traceroute from three vantage points to infer
whether a platform server address is anycast: comparable RTTs from
distant vantage points, and/or diverging penultimate-hop addresses,
imply multiple physical instances behind one address.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

from ..simcore import Signal, Timeout, Wait
from .address import Endpoint, IPAddress
from .node import Host
from .packet import Packet, Protocol, icmp_packet_size

_trace_tokens = itertools.count(1_000_000)


@dataclasses.dataclass
class TracerouteHop:
    """One hop in a traceroute: TTL, responding address (or None), RTT."""

    ttl: int
    ip: typing.Optional[IPAddress]
    rtt_ms: typing.Optional[float]
    kind: str  # "time-exceeded", "echo-reply", or "timeout"


@dataclasses.dataclass
class TracerouteResult:
    """A full path trace toward a target."""

    target: IPAddress
    hops: typing.List[TracerouteHop]

    @property
    def reached(self) -> bool:
        return bool(self.hops) and self.hops[-1].kind == "echo-reply"

    @property
    def penultimate_hop(self) -> typing.Optional[IPAddress]:
        """The last router before the target (None if unreached)."""
        if not self.reached or len(self.hops) < 2:
            return None
        return self.hops[-2].ip


class TracerouteTool:
    """TTL-limited ICMP probing from one vantage host."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self.sim = host.sim

    def trace_process(
        self,
        dst_ip: IPAddress,
        max_hops: int = 24,
        timeout: float = 1.0,
        probe_interval: float = 0.01,
    ) -> typing.Generator:
        """Run a traceroute; returns a :class:`TracerouteResult`."""
        hops: typing.List[TracerouteHop] = []
        for ttl in range(1, max_hops + 1):
            token = next(_trace_tokens)
            signal = Signal(f"trace-{token}")
            sent_at = self.sim.now
            state = {"resolved": False}

            def on_reply(reply: Packet, _state=state, _signal=signal, _sent=sent_at):
                if _state["resolved"]:
                    return
                _state["resolved"] = True
                kind = reply.payload[0]
                _signal.fire((kind, reply.src.ip, self.sim.now - _sent))

            def on_timeout(_state=state, _signal=signal, _token=token):
                if _state["resolved"]:
                    return
                _state["resolved"] = True
                self.host.probe_waiters.pop(_token, None)
                _signal.fire(None)

            self.host.probe_waiters[token] = on_reply
            self.host.send(
                Packet(
                    src=Endpoint(self.host.ip, 0),
                    dst=Endpoint(dst_ip, 0),
                    protocol=Protocol.ICMP,
                    size=icmp_packet_size(),
                    payload=("echo-request", token),
                    created_at=self.sim.now,
                    ttl=ttl,
                )
            )
            self.sim.schedule(timeout, on_timeout)
            outcome = yield Wait(signal)
            if outcome is None:
                hops.append(TracerouteHop(ttl, None, None, "timeout"))
            else:
                kind, ip, rtt = outcome
                hops.append(TracerouteHop(ttl, ip, rtt * 1000.0, kind))
                if kind == "echo-reply":
                    break
            yield Timeout(probe_interval)
        return TracerouteResult(dst_ip, hops)
