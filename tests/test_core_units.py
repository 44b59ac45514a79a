"""Unit tests for core analyses: anycast and the latency breakdown."""

import pytest

from repro.core.anycast import VantageProbe, infer_anycast, vantage_spread_km
from repro.core.breakdown import compute_breakdown
from repro.net.address import IPAddress
from repro.net.geo import EAST_US, MIDDLE_EAST, NORTH_US

IP_A = IPAddress.parse("20.0.0.1")
IP_B = IPAddress.parse("20.0.0.2")
HOP_1 = IPAddress.parse("10.0.0.1")
HOP_2 = IPAddress.parse("10.0.0.2")
HOP_3 = IPAddress.parse("10.0.0.3")


def _probe(vantage, location, ip, rtt, hops):
    return VantageProbe(
        vantage=vantage, location=location, server_ip=ip, rtt_ms=rtt, path_ips=hops
    )


def test_anycast_detected_by_low_rtts_everywhere():
    probes = [
        _probe("east", EAST_US, IP_A, 2.5, (HOP_1,)),
        _probe("north", NORTH_US, IP_A, 3.0, (HOP_1,)),
        _probe("me", MIDDLE_EAST, IP_A, 2.8, (HOP_1,)),
    ]
    inference = infer_anycast(probes)
    assert inference.anycast
    assert any("RTT" in reason for reason in inference.reasons)


def test_anycast_detected_by_divergent_penultimate_hops():
    probes = [
        _probe("east", EAST_US, IP_A, 2.5, (HOP_1,)),
        _probe("me", MIDDLE_EAST, IP_A, 120.0, (HOP_2,)),
    ]
    assert infer_anycast(probes).anycast


def test_unicast_not_flagged():
    probes = [
        _probe("east", EAST_US, IP_A, 2.5, (HOP_1, HOP_3)),
        _probe("me", MIDDLE_EAST, IP_A, 180.0, (HOP_2, HOP_3)),
    ]
    assert not infer_anycast(probes).anycast


def test_regional_assignment_not_anycast():
    probes = [
        _probe("east", EAST_US, IP_A, 2.5, (HOP_1,)),
        _probe("me", MIDDLE_EAST, IP_B, 2.5, (HOP_2,)),
    ]
    inference = infer_anycast(probes)
    assert not inference.anycast
    assert "regional" in inference.reasons[0]


def test_nearby_vantages_cannot_conclude_anycast():
    probes = [
        _probe("east-1", EAST_US, IP_A, 2.0, (HOP_1,)),
        _probe("east-2", EAST_US, IP_A, 2.1, (HOP_1,)),
    ]
    assert not infer_anycast(probes).anycast


def test_single_probe_is_inconclusive():
    assert not infer_anycast([_probe("east", EAST_US, IP_A, 2.0, (HOP_1,))]).anycast


def test_vantage_spread():
    probes = [
        _probe("east", EAST_US, IP_A, 1.0, ()),
        _probe("me", MIDDLE_EAST, IP_A, 1.0, ()),
    ]
    assert vantage_spread_km(probes) > 9000


def test_breakdown_components_sum():
    sample = compute_breakdown(
        action_at=0.0,
        uplink_packet_at=0.026,
        downlink_packet_at=0.070,
        displayed_at=0.110,
        uplink_one_way_s=0.0015,
        downlink_one_way_s=0.0015,
    )
    assert sample.sender_ms == pytest.approx(26.0)
    assert sample.network_ms == pytest.approx(3.0)
    assert sample.server_ms == pytest.approx(41.0)
    assert sample.receiver_ms == pytest.approx(40.0)
    assert sample.total_ms == pytest.approx(110.0)


def test_breakdown_validation():
    with pytest.raises(ValueError):
        compute_breakdown(1.0, 0.5, 2.0, 3.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        compute_breakdown(0.0, 1.0, 0.5, 3.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        compute_breakdown(0.0, 1.0, 2.0, 1.5, 0.0, 0.0)


def test_breakdown_subtracts_the_legs_one_at_a_time():
    """``(t_down - t_up) - up - down`` and ``(t_down - t_up) - (up + down)``
    differ in the last bit here; the recorded latencies use the first."""
    sample = compute_breakdown(0.0, 0.026, 0.070, 0.110, 0.0001, 0.0001)
    assert sample.server_ms == ((0.070 - 0.026) - 0.0001 - 0.0001) * 1000.0
    assert sample.server_ms != ((0.070 - 0.026) - (0.0001 + 0.0001)) * 1000.0
