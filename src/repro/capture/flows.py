"""Flow table: grouping captured packets into bidirectional flows.

A flow is keyed by (local port, remote endpoint, protocol) relative to
the monitored device: each socket/connection is one flow. This matters
for Hubs, whose control requests and avatar WebSocket share one server
but ride separate TCP connections (the paper classifies them as
different channels).
"""

from __future__ import annotations

import dataclasses
import typing

from ..net.address import Endpoint
from ..net.packet import Protocol
from .sniffer import DOWNLINK, PacketRecord, UPLINK


@dataclasses.dataclass
class Flow:
    """Aggregated statistics of one device<->server flow."""

    remote: Endpoint
    protocol: Protocol
    local_port: int = 0
    up_packets: int = 0
    up_bytes: int = 0
    down_packets: int = 0
    down_bytes: int = 0
    first_time: float = float("inf")
    last_time: float = float("-inf")
    records: typing.List[PacketRecord] = dataclasses.field(default_factory=list)

    def add(self, record: PacketRecord) -> None:
        if record.direction == UPLINK:
            self.up_packets += 1
            self.up_bytes += record.size
        else:
            self.down_packets += 1
            self.down_bytes += record.size
        self.first_time = min(self.first_time, record.time)
        self.last_time = max(self.last_time, record.time)
        self.records.append(record)

    @property
    def total_bytes(self) -> int:
        return self.up_bytes + self.down_bytes

    @property
    def total_packets(self) -> int:
        return self.up_packets + self.down_packets

    @property
    def duration(self) -> float:
        if self.last_time < self.first_time:
            return 0.0
        return self.last_time - self.first_time

    def bytes_between(self, start: float, end: float, direction=None) -> int:
        """Bytes captured in [start, end), optionally one direction."""
        return sum(
            r.size
            for r in self.records
            if start <= r.time < end
            and (direction is None or r.direction == direction)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Flow({self.protocol} {self.remote} "
            f"up={self.up_bytes}B down={self.down_bytes}B)"
        )


class FlowTable:
    """Builds and indexes flows from a capture."""

    def __init__(self, records: typing.Iterable[PacketRecord]) -> None:
        self.flows: dict[tuple, Flow] = {}
        for record in records:
            key = (record.local.port, record.remote, record.protocol)
            flow = self.flows.get(key)
            if flow is None:
                flow = Flow(
                    remote=record.remote,
                    protocol=record.protocol,
                    local_port=record.local.port,
                )
                self.flows[key] = flow
            flow.add(record)

    def __len__(self) -> int:
        return len(self.flows)

    def __iter__(self):
        return iter(self.flows.values())

    def largest(self, count: int = 5) -> typing.List[Flow]:
        return sorted(self.flows.values(), key=lambda f: -f.total_bytes)[:count]
