"""End-to-end latency breakdown arithmetic (Sec. 7).

Given the measurable timestamps — action time, the action packet
leaving the sender's AP, the forwarded packet arriving at the
receiver's AP, the frame displaying the action — plus one-way network
estimates from ping, the breakdown splits E2E latency into sender,
network, server, and receiver components exactly as the paper does.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class BreakdownSample:
    """One action's latency decomposition, all in milliseconds."""

    sender_ms: float
    network_ms: float
    server_ms: float
    receiver_ms: float

    @property
    def total_ms(self) -> float:
        return self.sender_ms + self.network_ms + self.server_ms + self.receiver_ms


def compute_breakdown(
    action_at: float,
    uplink_packet_at: float,
    downlink_packet_at: float,
    displayed_at: float,
    uplink_one_way_s: float,
    downlink_one_way_s: float,
) -> BreakdownSample:
    """Decompose one action's path (inputs in seconds).

    * sender  = action -> packet at the sender's AP,
    * network = ping-estimated one-way transit on both legs,
    * server  = AP-to-AP time minus the network estimate,
    * receiver = packet at the receiver's AP -> displayed frame.

    The server component subtracts the two legs one at a time rather
    than their sum: the two orders can differ in the last bit, and the
    recorded Table 4 and Fig. 11 results use this one.
    """
    if uplink_packet_at < action_at:
        raise ValueError("uplink packet precedes the action")
    if downlink_packet_at < uplink_packet_at:
        raise ValueError("downlink packet precedes the uplink packet")
    if displayed_at < downlink_packet_at:
        raise ValueError("display precedes the downlink packet")
    sender = uplink_packet_at - action_at
    network = uplink_one_way_s + downlink_one_way_s
    server = (downlink_packet_at - uplink_packet_at) - uplink_one_way_s - downlink_one_way_s
    receiver = displayed_at - downlink_packet_at
    return BreakdownSample(
        sender_ms=sender * 1000.0,
        network_ms=network * 1000.0,
        server_ms=server * 1000.0,
        receiver_ms=receiver * 1000.0,
    )
