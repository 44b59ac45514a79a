"""Packet model shared by every protocol in the simulated stack.

A :class:`Packet` carries enough header truth (addresses, ports,
protocol, sizes, TTL) for the capture layer to classify flows exactly the
way the paper does — from the wire, without peeking at payload semantics.
Payloads are opaque Python objects interpreted only by endpoints.
"""

from __future__ import annotations

import enum
import itertools
import typing

from .address import Endpoint

#: Header sizes in bytes, used for on-the-wire accounting.
IP_HEADER = 20
UDP_HEADER = 8
TCP_HEADER = 20
ICMP_HEADER = 8
TLS_RECORD_OVERHEAD = 29
RTP_HEADER = 12

DEFAULT_TTL = 64
#: Maximum transport payload per packet (Ethernet MTU minus IP header).
MTU_PAYLOAD = 1480
TCP_MSS = 1460

_packet_ids = itertools.count(1)


class Protocol(enum.Enum):
    """Wire protocol of a packet, as a capture tool would see it."""

    UDP = "udp"
    TCP = "tcp"
    ICMP = "icmp"

    def __str__(self) -> str:
        return self.value


class Packet:
    """One IP packet in flight.

    ``size`` is the full on-the-wire size including all headers; it is
    what links, qdiscs, and the sniffer account. ``payload`` is only for
    endpoint logic.

    A ``__slots__`` class rather than a dataclass: millions of packets
    are allocated per run, and the slotted layout removes the per-packet
    ``__dict__`` from the hot path.
    """

    __slots__ = (
        "src",
        "dst",
        "protocol",
        "size",
        "payload",
        "created_at",
        "ttl",
        "packet_id",
    )

    def __init__(
        self,
        src: Endpoint,
        dst: Endpoint,
        protocol: Protocol,
        size: int,
        payload: typing.Any = None,
        created_at: float = 0.0,
        ttl: int = DEFAULT_TTL,
        packet_id: typing.Optional[int] = None,
    ) -> None:
        if size <= 0:
            raise ValueError(f"packet size must be positive, got {size}")
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.size = size
        self.payload = payload
        self.created_at = created_at
        self.ttl = ttl
        self.packet_id = next(_packet_ids) if packet_id is None else packet_id

    @property
    def five_tuple(self) -> tuple:
        """(src ip, src port, dst ip, dst port, protocol)."""
        return (
            self.src.ip,
            self.src.port,
            self.dst.ip,
            self.dst.port,
            self.protocol,
        )

    @property
    def flow_label(self) -> str:
        """The 5-tuple as one observability label:
        ``"ip:port->ip:port/proto"`` — the key the obs layer accounts
        per-flow bytes under, matching a Wireshark conversation row."""
        return (
            f"{self.src.ip}:{self.src.port}->"
            f"{self.dst.ip}:{self.dst.port}/{self.protocol}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(#{self.packet_id} {self.protocol} "
            f"{self.src}->{self.dst} {self.size}B ttl={self.ttl})"
        )


def udp_packet_size(payload_bytes: int) -> int:
    """Full wire size of a UDP packet carrying ``payload_bytes``."""
    return IP_HEADER + UDP_HEADER + payload_bytes


def tcp_packet_size(payload_bytes: int) -> int:
    """Full wire size of a TCP segment carrying ``payload_bytes``."""
    return IP_HEADER + TCP_HEADER + payload_bytes


def icmp_packet_size(payload_bytes: int = 56) -> int:
    """Full wire size of an ICMP echo packet."""
    return IP_HEADER + ICMP_HEADER + payload_bytes
