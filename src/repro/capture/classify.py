"""Control- vs data-channel classification (Sec. 4.1).

The paper separates each platform's traffic into a control channel and a
data channel using two signals:

1. *Activity phase*, observable at the AP: control channels are busiest
   on the welcome page, data channels during social events (Fig. 2).
   Hubs is the exception: both its channels are active during events.
   :func:`classify_by_activity` implements this rule. It falls back on
   the protocol (HTTPS control, UDP/RTP data) for flows too small to
   rate, and keeps HTTPS on the control side when a UDP data plane exists.
2. *Infrastructure*: the two channels terminate at servers with
   different owners, locations, or hostnames. That evidence comes from
   probing the servers (:mod:`repro.measure.infrastructure`), and
   Finding 1 is checked on it.
"""

from __future__ import annotations

import dataclasses
import typing

from ..net.packet import Protocol
from .flows import Flow, FlowTable

CONTROL = "control"
DATA = "data"

#: UDP ports conventionally used for RTP media by the platforms we model.
RTP_PORT_RANGE = range(5000, 5100)


@dataclasses.dataclass
class ClassifiedFlow:
    """A flow with its inferred channel and protocol label."""

    flow: Flow
    channel: str  # CONTROL or DATA
    protocol_label: str  # "HTTPS", "UDP", or "RTP/RTCP"


def protocol_label(flow: Flow) -> str:
    """Human-readable protocol name as the paper's Table 2 lists them."""
    if flow.protocol is Protocol.TCP:
        return "HTTPS" if flow.remote.port == 443 else "TCP"
    if flow.protocol is Protocol.UDP:
        if flow.remote.port in RTP_PORT_RANGE:
            return "RTP/RTCP"
        return "UDP"
    return str(flow.protocol).upper()


def classify_by_activity(
    table: FlowTable,
    welcome_window: tuple,
    event_window: tuple,
    min_bytes: int = 512,
) -> typing.List[ClassifiedFlow]:
    """Rule 2: label flows by which experiment phase dominates them.

    ``welcome_window`` and ``event_window`` are (start, end) pairs.
    A flow whose event-phase byte *rate* exceeds its welcome-phase rate
    is a data-channel flow. Tiny flows (< ``min_bytes`` total) keep the
    protocol-based label because phase rates are too noisy.
    """
    w_start, w_end = welcome_window
    e_start, e_end = event_window
    w_dur = max(w_end - w_start, 1e-9)
    e_dur = max(e_end - e_start, 1e-9)
    # When a substantial UDP data plane exists (>= 2 Kbps during the
    # event), HTTPS flows are control regardless of phase (Worlds'
    # periodic in-event reports are still control traffic, Sec. 4.1).
    # Web-based platforms (Hubs) have no such UDP plane — RTCP
    # keepalives are far below the bar — so the activity rule splits
    # their HTTPS flows instead.
    has_udp_data = any(
        flow.protocol is Protocol.UDP
        and flow.bytes_between(e_start, e_end) * 8.0 / (e_dur * 1000.0) >= 2.0
        for flow in table
    )
    out = []
    for flow in table:
        label = protocol_label(flow)
        if flow.protocol is Protocol.TCP and has_udp_data:
            channel = CONTROL
        elif flow.total_bytes < min_bytes:
            channel = CONTROL if flow.protocol is Protocol.TCP else DATA
        else:
            welcome_rate = flow.bytes_between(w_start, w_end) / w_dur
            event_rate = flow.bytes_between(e_start, e_end) / e_dur
            channel = DATA if event_rate > welcome_rate else CONTROL
        out.append(ClassifiedFlow(flow, channel, label))
    return out


def channel_records(
    classified: typing.Sequence[ClassifiedFlow], channel: str
) -> list:
    """All packet records of every flow labelled ``channel``."""
    records = []
    for item in classified:
        if item.channel == channel:
            records.extend(item.flow.records)
    records.sort(key=lambda r: r.time)
    return records
