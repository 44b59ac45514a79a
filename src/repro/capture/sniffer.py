"""Packet capture at a WiFi access point (the paper's vantage point).

The testbed in Sec. 3.2 runs Wireshark on each AP. :class:`Sniffer`
reproduces that: it taps the access links of one user's device and
records per-packet metadata (never payloads — everything downstream
works from headers, as the paper's analysis had to, since all traffic is
encrypted).

Two capture modes coexist:

* **Retained** (default): every packet becomes a :class:`PacketRecord`
  in :attr:`Sniffer.records` — required for pcap export, flow
  classification, and per-record latency analysis.
* **Streaming** (``retain_records=False``): consumers register
  throughput bins up front (:meth:`Sniffer.stream_bins`) and the tap
  feeds them directly, so a long scalability run needs O(bins) memory
  instead of holding millions of record objects.  The streamed series
  is bit-identical to :func:`~repro.capture.timeseries.throughput_series`
  over the retained records.  Both modes can be combined.
"""

from __future__ import annotations

import dataclasses
import typing

from ..net.address import Endpoint
from ..net.link import Link
from ..net.packet import Packet, Protocol

UPLINK = "up"
DOWNLINK = "down"


@dataclasses.dataclass(frozen=True, slots=True)
class PacketRecord:
    """Header metadata of one captured packet."""

    time: float
    src: Endpoint
    dst: Endpoint
    protocol: Protocol
    size: int
    direction: str  # UPLINK or DOWNLINK relative to the monitored device

    @property
    def remote(self) -> Endpoint:
        """The non-device end of the packet."""
        return self.dst if self.direction == UPLINK else self.src

    @property
    def local(self) -> Endpoint:
        """The device end of the packet."""
        return self.src if self.direction == UPLINK else self.dst


class Sniffer:
    """Captures packets crossing a device's access links."""

    def __init__(self, name: str = "ap-capture", retain_records: bool = True) -> None:
        self.name = name
        self.retain_records = retain_records
        self._records: typing.List[PacketRecord] = []
        #: Packets seen (whether or not records are retained).
        self.captured_packets = 0
        self.enabled = True
        #: (direction filter, BinAccumulator.add) pairs fed by the tap.
        self._bin_streams: typing.List[tuple] = []

    @property
    def records(self) -> typing.List[PacketRecord]:
        if not self.retain_records:
            raise RuntimeError(
                f"sniffer {self.name!r} was created with retain_records=False, "
                "so per-packet records were not kept. Per-record analyses "
                "(pcap export, flow classification, latency) require "
                "retain_records=True; binned throughput is available via "
                "stream_bins()."
            )
        return self._records

    # ------------------------------------------------------------------
    # Streaming consumers
    # ------------------------------------------------------------------
    def stream_bins(
        self,
        start: float,
        end: float,
        bin_s: float = 1.0,
        direction: typing.Optional[str] = None,
    ):
        """Register a :class:`~repro.capture.timeseries.BinAccumulator`
        fed live from this sniffer's taps (optionally one direction)."""
        from .timeseries import BinAccumulator

        accumulator = BinAccumulator(start, end, bin_s)
        self._bin_streams.append((direction, accumulator.add))
        return accumulator

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------
    def attach_access_links(self, uplink: Link, downlink: Link) -> None:
        """Tap the device->AP and AP->device links."""
        uplink.add_tap(self._make_tap(UPLINK))
        downlink.add_tap(self._make_tap(DOWNLINK))

    def _make_tap(self, direction: str):
        retain = self.retain_records
        records_append = self._records.append

        def tap(packet: Packet, link: Link) -> None:
            if not self.enabled:
                return
            self.captured_packets += 1
            time = link.sim._now
            if self._bin_streams:
                size = packet.size
                for want, add in self._bin_streams:
                    if want is None or want == direction:
                        add(time, size)
            if retain:
                records_append(
                    PacketRecord(
                        time=time,
                        src=packet.src,
                        dst=packet.dst,
                        protocol=packet.protocol,
                        size=packet.size,
                        direction=direction,
                    )
                )

        return tap

    def clear(self) -> None:
        self._records.clear()
        self.captured_packets = 0

    def filter(
        self,
        direction: typing.Optional[str] = None,
        protocol: typing.Optional[Protocol] = None,
        remote_port: typing.Optional[int] = None,
        remote_ip=None,
        start: typing.Optional[float] = None,
        end: typing.Optional[float] = None,
    ) -> typing.List[PacketRecord]:
        """Select records matching all provided criteria."""
        out = []
        for record in self.records:
            if direction is not None and record.direction != direction:
                continue
            if protocol is not None and record.protocol is not protocol:
                continue
            if remote_port is not None and record.remote.port != remote_port:
                continue
            if remote_ip is not None and record.remote.ip != remote_ip:
                continue
            if start is not None and record.time < start:
                continue
            if end is not None and record.time >= end:
                continue
            out.append(record)
        return out

    def total_bytes(self, **kwargs) -> int:
        return sum(record.size for record in self.filter(**kwargs))

    def __len__(self) -> int:
        return len(self._records) if self.retain_records else self.captured_packets
