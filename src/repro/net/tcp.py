"""A simulated TCP with handshake, loss recovery, and congestion control.

The control channels of all five platforms run HTTPS over TCP, and the
Horizon Worlds findings in Sec. 8.1 (UDP sends gated on TCP delivery,
TCP recovering from a 100% loss episode while UDP does not) depend on
real TCP dynamics, so this module implements:

* three-way handshake (SYN / SYN-ACK / ACK),
* byte-stream sequencing with cumulative ACKs and in-order delivery,
* message framing on top of the stream (the unit applications send),
* RTT estimation (RFC 6298) and RTO retransmission with backoff,
* fast retransmit on three duplicate ACKs,
* slow start and AIMD congestion avoidance.

It deliberately omits receive-window flow control, SACK, and Nagle;
none of the reproduced experiments depend on them.
"""

from __future__ import annotations

import typing

from .address import Endpoint
from .node import Host
from .packet import Packet, Protocol, TCP_MSS, tcp_packet_size

#: Pure ACK / control segment wire size.
BARE_SEGMENT = tcp_packet_size(0)

MIN_RTO = 0.2
MAX_RTO = 60.0
INITIAL_RTO = 1.0
INITIAL_CWND = 10 * TCP_MSS
DUPACK_THRESHOLD = 3


class TcpMessage:
    """A framed application message queued on a connection."""

    __slots__ = ("size", "meta", "enqueued_at", "end_seq", "acked")

    def __init__(self, size: int, meta, enqueued_at: float) -> None:
        self.size = size
        self.meta = meta
        self.enqueued_at = enqueued_at
        self.end_seq = 0
        self.acked = False


class TcpConnection:
    """One endpoint of a TCP connection."""

    def __init__(
        self,
        host: Host,
        local_port: int,
        remote: Endpoint,
        on_message: typing.Optional[typing.Callable] = None,
        on_established: typing.Optional[typing.Callable] = None,
        name: str = "",
    ) -> None:
        self.host = host
        self.sim = host.sim
        self.local = Endpoint(host.ip, local_port)
        self.remote = remote
        self.name = name or f"tcp:{self.local}->{remote}"
        self.on_message = on_message
        self.on_established = on_established
        self.state = "closed"
        # Send side
        self.snd_una = 0
        self.snd_nxt = 0
        self.write_seq = 0  # end of data queued by the application
        self._segments: dict[int, dict] = {}  # seq -> in-flight segment info
        self._markers: list[TcpMessage] = []  # messages not yet fully sent
        self.cwnd = float(INITIAL_CWND)
        self.ssthresh = float(1 << 30)
        self.dupacks = 0
        #: NewReno-style recovery point: holes below this sequence are
        #: retransmitted one per partial ACK instead of one per RTO.
        self.recover = 0
        #: cwnd saved at RTO time for F-RTO-style spurious-timeout
        #: undo: a sudden path-delay increase (tc-netem delay, Sec. 8)
        #: must not permanently collapse an established connection.
        self._pre_rto_cwnd: typing.Optional[float] = None
        self._rto = INITIAL_RTO
        self._srtt: typing.Optional[float] = None
        self._rttvar = 0.0
        self._rto_timer = None
        self._rto_backoff = 1
        # Receive side
        self.rcv_nxt = 0
        self._ooo: dict[int, tuple] = {}  # seq -> (length, markers)
        self._delack_pending = 0
        self._delack_timer = None
        # Stats
        self.bytes_sent = 0
        self.bytes_acked = 0
        self.retransmissions = 0
        self.messages_delivered = 0

    # ------------------------------------------------------------------
    # Connection establishment
    # ------------------------------------------------------------------
    def connect(self) -> None:
        """Start the client-side handshake."""
        if self.state != "closed":
            raise RuntimeError(f"{self.name}: connect() in state {self.state}")
        self.state = "syn-sent"
        self.host.bind(Protocol.TCP, self.local.port, self._on_packet)
        self._send_control("syn")
        self._arm_rto()

    def accept_from_syn(self) -> None:
        """Server-side: the listener saw a SYN and created us."""
        self.state = "syn-received"
        self._send_control("syn-ack")
        self._arm_rto()

    @property
    def established(self) -> bool:
        return self.state == "established"

    @property
    def all_acked(self) -> bool:
        """True when every queued byte has been cumulatively ACKed."""
        return self.snd_una >= self.write_seq

    @property
    def bytes_in_flight(self) -> int:
        return self.snd_nxt - self.snd_una

    @property
    def srtt(self) -> typing.Optional[float]:
        return self._srtt

    def close(self) -> None:
        self.state = "closed"
        self._cancel_rto()
        self.host.unbind(Protocol.TCP, self.local.port)

    # ------------------------------------------------------------------
    # Application send
    # ------------------------------------------------------------------
    def send_message(self, size: int, meta=None) -> TcpMessage:
        """Queue an application message of ``size`` bytes for delivery."""
        if size <= 0:
            raise ValueError(f"message size must be positive, got {size}")
        message = TcpMessage(size, meta, self.sim.now)
        self.write_seq += size
        message.end_seq = self.write_seq
        self._markers.append(message)
        if self.established:
            self._try_send()
        return message

    # ------------------------------------------------------------------
    # Segment transmission
    # ------------------------------------------------------------------
    def _try_send(self) -> None:
        while (
            self.snd_nxt < self.write_seq
            and self.bytes_in_flight + TCP_MSS <= self.cwnd + TCP_MSS - 1
        ):
            length = min(TCP_MSS, self.write_seq - self.snd_nxt)
            seq = self.snd_nxt
            markers = [
                m for m in self._markers if seq < m.end_seq <= seq + length
            ]
            for marker in markers:
                self._markers.remove(marker)
            self._segments[seq] = {
                "length": length,
                "markers": markers,
                "sent_at": self.sim.now,
                "first_sent_at": self.sim.now,
                "retransmitted": False,
            }
            self.snd_nxt += length
            self._emit_data(seq, length, markers)
            self._arm_rto()

    def _emit_data(self, seq: int, length: int, markers) -> None:
        self.bytes_sent += length
        packet = Packet(
            src=self.local,
            dst=self.remote,
            protocol=Protocol.TCP,
            size=tcp_packet_size(length),
            payload=(
                "tcp",
                "data",
                seq,
                length,
                [(m.meta, m.size, m.end_seq, m.enqueued_at) for m in markers],
            ),
            created_at=self.sim.now,
        )
        self.host.send(packet)

    def _send_control(self, kind: str, ack_no: int = 0) -> None:
        packet = Packet(
            src=self.local,
            dst=self.remote,
            protocol=Protocol.TCP,
            size=BARE_SEGMENT,
            payload=("tcp", kind, ack_no, 0, None),
            created_at=self.sim.now,
        )
        self.host.send(packet)

    # ------------------------------------------------------------------
    # Reception
    # ------------------------------------------------------------------
    def _on_packet(self, packet: Packet) -> None:
        payload = packet.payload
        if not (isinstance(payload, tuple) and payload and payload[0] == "tcp"):
            return
        kind = payload[1]
        if kind == "syn":
            # Simultaneous open/dup SYN: answer again.
            if self.state in ("syn-received", "established"):
                self._send_control("syn-ack")
            return
        if kind == "syn-ack":
            if self.state == "syn-sent":
                self.state = "established"
                self._cancel_rto()
                self._rto_backoff = 1
                self._send_control("ack", self.rcv_nxt)
                if self.on_established is not None:
                    self.on_established(self)
                self._try_send()
            return
        if kind in ("ack", "ack-dup"):
            if self.state == "syn-received":
                self.state = "established"
                self._cancel_rto()
                self._rto_backoff = 1
                if self.on_established is not None:
                    self.on_established(self)
            # "ack-dup" acknowledges duplicate *data* (a stray
            # retransmission); it must not feed dupack counting or it
            # triggers retransmission feedback loops after RTO storms.
            self._handle_ack(payload[2], count_dupacks=(kind == "ack"))
            return
        if kind == "data":
            self._handle_data(payload[2], payload[3], payload[4])
            return

    def _handle_data(self, seq: int, length: int, markers) -> None:
        if self.state == "syn-received":
            # Handshake ACK was lost but data arrived: consider established.
            self.state = "established"
            self._cancel_rto()
            if self.on_established is not None:
                self.on_established(self)
        if seq + length <= self.rcv_nxt:
            self._send_control("ack-dup", self.rcv_nxt)  # duplicate data
            return
        if seq > self.rcv_nxt:
            self._ooo[seq] = (length, markers)
            self._send_control("ack", self.rcv_nxt)  # duplicate ACK
            return
        self._accept_in_order(seq, length, markers)
        filled_hole = False
        while self.rcv_nxt in self._ooo:
            filled_hole = True
            next_length, next_markers = self._ooo.pop(self.rcv_nxt)
            self._accept_in_order(self.rcv_nxt, next_length, next_markers)
        # Delayed ACK (RFC 1122): acknowledge every second in-order
        # segment, or after 40 ms — halves the ACK load a push-heavy
        # downlink (Hubs) would otherwise put on the uplink.
        self._delack_pending += 1
        if filled_hole or self._delack_pending >= 2:
            self._flush_ack()
        elif self._delack_timer is None:
            self._delack_timer = self.sim.schedule(0.04, self._flush_ack)

    def _flush_ack(self) -> None:
        if self._delack_timer is not None:
            self._delack_timer.cancel()
            self._delack_timer = None
        if self._delack_pending:
            self._delack_pending = 0
            self._send_control("ack", self.rcv_nxt)

    def _accept_in_order(self, seq: int, length: int, markers) -> None:
        self.rcv_nxt = seq + length
        if not markers:
            return
        for meta, size, end_seq, enqueued_at in markers:
            if end_seq <= self.rcv_nxt:
                self.messages_delivered += 1
                if self.on_message is not None:
                    self.on_message(self, meta, size, enqueued_at)

    # ------------------------------------------------------------------
    # ACK processing and congestion control
    # ------------------------------------------------------------------
    def _handle_ack(self, ack_no: int, count_dupacks: bool = True) -> None:
        if ack_no > self.snd_una:
            newly_acked = ack_no - self.snd_una
            self._retire_segments(ack_no)
            self.snd_una = ack_no
            self.bytes_acked += newly_acked
            self.dupacks = 0
            self._rto_backoff = 1
            self._grow_cwnd(newly_acked)
            if ack_no >= self.recover and self._pre_rto_cwnd is not None:
                # The whole pre-timeout window was acknowledged at once:
                # the RTO was spurious (delay spike, not loss). Undo the
                # collapse so the next burst still fits one window.
                self.cwnd = max(self.cwnd, self._pre_rto_cwnd)
                self._pre_rto_cwnd = None
            if self.snd_una >= self.snd_nxt:
                self._cancel_rto()
            else:
                self._arm_rto(reset=True)
                if ack_no < self.recover:
                    # Partial ACK during recovery: the next hole is
                    # lost too; retransmit it (NewReno) — but not more
                    # than once per burst of closely-spaced ACKs.
                    self._retransmit_first(min_age=0.05)
            self._try_send()
        elif count_dupacks and ack_no == self.snd_una and self.bytes_in_flight > 0:
            self.dupacks += 1
            if self.dupacks == DUPACK_THRESHOLD:
                self._fast_retransmit()

    def _retire_segments(self, ack_no: int) -> None:
        # Segments enter at ``snd_nxt``, in ascending and contiguous
        # sequence order, so the acknowledged ones are a prefix.
        done = []
        for seq, info in self._segments.items():
            if seq + info["length"] > ack_no:
                break
            done.append(seq)
        for seq in done:
            info = self._segments.pop(seq)
            if not info["retransmitted"]:
                self._update_rtt(self.sim.now - info["sent_at"])
            else:
                # Karn: an ambiguous sample must not lower the RTO, but
                # the time since first transmission is a safe *floor* —
                # it stops RTO storms while netem holds packets for
                # seconds (Sec. 8.1).
                conservative = self.sim.now - info["first_sent_at"]
                self._rto = min(MAX_RTO, max(self._rto, conservative * 1.1))
            for marker in info["markers"]:
                marker.acked = True

    def _grow_cwnd(self, newly_acked: int) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += min(newly_acked, TCP_MSS)
        else:
            self.cwnd += TCP_MSS * TCP_MSS / self.cwnd

    def _update_rtt(self, sample: float) -> None:
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - sample)
            self._srtt = 0.875 * self._srtt + 0.125 * sample
        self._rto = max(MIN_RTO, min(MAX_RTO, self._srtt + 4 * self._rttvar))

    # ------------------------------------------------------------------
    # Loss recovery
    # ------------------------------------------------------------------
    def _fast_retransmit(self) -> None:
        self.ssthresh = max(2 * TCP_MSS, self.bytes_in_flight / 2)
        self.cwnd = self.ssthresh + DUPACK_THRESHOLD * TCP_MSS
        self.recover = self.snd_nxt
        self._retransmit_first()

    def _on_rto(self) -> None:
        self._rto_timer = None
        if self.state == "syn-sent":
            self._send_control("syn")
            self._backoff_and_rearm()
            return
        if self.state == "syn-received":
            self._send_control("syn-ack")
            self._backoff_and_rearm()
            return
        if self.snd_una >= self.snd_nxt:
            return
        if self._pre_rto_cwnd is None:
            self._pre_rto_cwnd = self.cwnd
        self.ssthresh = max(2 * TCP_MSS, self.bytes_in_flight / 2)
        self.cwnd = float(TCP_MSS)
        self.dupacks = 0
        self.recover = self.snd_nxt
        self._retransmit_first()
        self._backoff_and_rearm()

    def _backoff_and_rearm(self) -> None:
        self._rto_backoff = min(self._rto_backoff * 2, 64)
        self._arm_rto(reset=True)

    def _retransmit_first(self, min_age: float = 0.0) -> None:
        if not self._segments:
            return
        seq = min(self._segments)
        info = self._segments[seq]
        if min_age > 0.0 and self.sim.now - info["sent_at"] < min_age:
            return
        info["retransmitted"] = True
        info["sent_at"] = self.sim.now
        self.retransmissions += 1
        self._emit_data(seq, info["length"], info["markers"])

    # ------------------------------------------------------------------
    # RTO timer plumbing
    # ------------------------------------------------------------------
    def _arm_rto(self, reset: bool = False) -> None:
        if self._rto_timer is not None:
            if not reset:
                return
            self._rto_timer.cancel()
        # Exponential backoff, but never wait longer than MAX_RTO/2 so
        # a connection probes a healed path within tens of seconds (the
        # Sec. 8.1 TCP recovery after the 100%-loss episode).
        delay = min(MAX_RTO / 2, self._rto * self._rto_backoff)
        self._rto_timer = self.sim.schedule(delay, self._on_rto)

    def _cancel_rto(self) -> None:
        if self._rto_timer is not None:
            self._rto_timer.cancel()
            self._rto_timer = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TcpConnection({self.name}, {self.state}, cwnd={self.cwnd:.0f})"


class TcpListener:
    """A passive socket that spawns a server connection per client."""

    def __init__(
        self,
        host: Host,
        port: int,
        on_connection: typing.Callable[[TcpConnection], None],
        on_message: typing.Optional[typing.Callable] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.on_connection = on_connection
        self.on_message = on_message
        self.connections: dict[Endpoint, TcpConnection] = {}
        host.bind(Protocol.TCP, port, self._on_packet)

    def close(self) -> None:
        self.host.unbind(Protocol.TCP, self.port)
        for connection in list(self.connections.values()):
            connection.state = "closed"
            connection._cancel_rto()

    def _on_packet(self, packet: Packet) -> None:
        payload = packet.payload
        if not (isinstance(payload, tuple) and payload and payload[0] == "tcp"):
            return
        remote = packet.src
        connection = self.connections.get(remote)
        if connection is None:
            if payload[1] != "syn":
                return  # stray segment for a connection we never had
            connection = TcpConnection(
                self.host,
                self.port,
                remote,
                on_message=self.on_message,
                name=f"tcp-server:{self.host.name}<-{remote}",
            )
            # The listener owns the port; demux by remote endpoint.
            self.host.unbind(Protocol.TCP, self.port)
            self.host.bind(Protocol.TCP, self.port, self._on_packet)
            self.connections[remote] = connection
            connection.accept_from_syn()
            self.on_connection(connection)
            return
        connection._on_packet(packet)
