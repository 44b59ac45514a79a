"""Unit tests for the capture layer: sniffer, flows, time series."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.capture.flows import FlowTable
from repro.capture.sniffer import DOWNLINK, PacketRecord, Sniffer, UPLINK
from repro.capture.timeseries import average_kbps, correlation, throughput_series
from repro.measure.session import Testbed
from repro.net.address import Endpoint, IPAddress
from repro.net.packet import Protocol
from repro.net.udp import UdpSocket


def _record(time, size=100, direction=UPLINK, remote_port=7777, proto=Protocol.UDP):
    device = Endpoint(IPAddress.parse("10.0.0.1"), 20000)
    server = Endpoint(IPAddress.parse("12.0.0.1"), remote_port)
    if direction == UPLINK:
        src, dst = device, server
    else:
        src, dst = server, device
    return PacketRecord(
        time=time, src=src, dst=dst, protocol=proto, size=size, direction=direction
    )


def test_sniffer_captures_both_directions(world):
    sniffer = Sniffer()
    sniffer.attach_access_links(world.client_up, world.client_down)
    got = []
    UdpSocket(world.server, 9000, on_datagram=lambda s, n, p: got.append(n))
    client_socket = UdpSocket(world.client, 9001)
    client_socket.send_to(Endpoint(world.server.ip, 9000), 300)
    # Trigger a reply.
    server_socket = UdpSocket(world.server, 9002)
    world.sim.run(until=1.0)
    server_socket.send_to(Endpoint(world.client.ip, 9001), 200)
    world.sim.run(until=2.0)
    directions = [r.direction for r in sniffer.records]
    assert UPLINK in directions and DOWNLINK in directions


def test_sniffer_filters(world):
    sniffer = Sniffer()
    records = [
        _record(1.0, direction=UPLINK),
        _record(2.0, direction=DOWNLINK),
        _record(3.0, direction=UPLINK, proto=Protocol.TCP, remote_port=443),
    ]
    sniffer.records.extend(records)
    assert len(sniffer.filter(direction=UPLINK)) == 2
    assert len(sniffer.filter(protocol=Protocol.TCP)) == 1
    assert len(sniffer.filter(start=1.5, end=2.5)) == 1
    assert len(sniffer.filter(remote_port=443)) == 1
    assert sniffer.total_bytes(direction=UPLINK) == 200


def test_record_remote_is_server_side():
    up = _record(0.0, direction=UPLINK)
    down = _record(0.0, direction=DOWNLINK)
    assert up.remote.port == 7777
    assert down.remote.port == 7777


def test_flow_table_groups_by_remote_and_protocol():
    records = [
        _record(1.0, size=100, direction=UPLINK),
        _record(1.5, size=200, direction=DOWNLINK),
        _record(2.0, size=50, remote_port=443, proto=Protocol.TCP),
    ]
    table = FlowTable(records)
    assert len(table) == 2
    udp_flow = next(f for f in table if f.protocol is Protocol.UDP)
    assert udp_flow.up_bytes == 100
    assert udp_flow.down_bytes == 200
    assert udp_flow.total_packets == 2
    assert udp_flow.duration == pytest.approx(0.5)


def test_flow_bytes_between():
    records = [_record(float(t), size=10) for t in range(10)]
    table = FlowTable(records)
    flow = next(iter(table))
    assert flow.bytes_between(2.0, 5.0) == 30
    assert flow.bytes_between(0.0, 10.0, direction=UPLINK) == 100
    assert flow.bytes_between(0.0, 10.0, direction=DOWNLINK) == 0


def test_flow_table_largest():
    records = [_record(1.0, size=10)] + [
        _record(1.0, size=1000, remote_port=443, proto=Protocol.TCP)
    ]
    table = FlowTable(records)
    assert table.largest(1)[0].protocol is Protocol.TCP


def test_throughput_series_binning():
    records = [_record(0.5, size=125), _record(1.5, size=250)]
    series = throughput_series(records, 0.0, 2.0, bin_s=1.0)
    assert len(series) == 2
    assert series.kbps[0] == pytest.approx(1.0)  # 125 B = 1000 bits
    assert series.kbps[1] == pytest.approx(2.0)


def test_throughput_series_rejects_bad_window():
    with pytest.raises(ValueError):
        throughput_series([], 5.0, 5.0)


def test_average_kbps():
    records = [_record(t, size=125) for t in (0.1, 0.9, 1.5, 1.9)]
    assert average_kbps(records, 0.0, 2.0) == pytest.approx(2.0)


def test_average_kbps_excludes_outside_window():
    records = [_record(0.5, size=125), _record(5.0, size=125_000)]
    assert average_kbps(records, 0.0, 1.0) == pytest.approx(1.0)


def test_series_mean_window():
    records = [_record(t + 0.5, size=125) for t in range(10)]
    series = throughput_series(records, 0.0, 10.0, bin_s=1.0)
    assert series.mean_kbps(0.0, 10.0) == pytest.approx(1.0)
    assert series.mean_kbps(20.0, 30.0) == 0.0


def test_correlation_perfect_and_inverse():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    assert correlation(a, a * 2 + 1) == pytest.approx(1.0)
    assert correlation(a, -a) == pytest.approx(-1.0)


def test_correlation_degenerate_series():
    flat = np.ones(5)
    varying = np.arange(5.0)
    assert correlation(flat, varying) == 0.0


def test_correlation_length_mismatch():
    with pytest.raises(ValueError):
        correlation(np.ones(3), np.ones(4))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=9.99), min_size=1, max_size=200))
def test_binning_conserves_bytes(times):
    """Total bits across bins equal total captured bits."""
    records = [_record(t, size=100) for t in times]
    series = throughput_series(records, 0.0, 10.0, bin_s=1.0)
    assert series.bits_per_bin.sum() == pytest.approx(len(times) * 800)


def test_streamed_bins_equal_the_series_of_the_retained_records():
    """A real two-user capture in both modes: the tap's live bins equal
    ``throughput_series`` over the kept records, bit for bit, per
    direction and for both (the last bin is a partial one)."""
    testbed = Testbed("vrchat", n_users=2, seed=0)
    sniffer = testbed.u1.sniffer
    start, end = 12.3, 41.9
    streams = {
        direction: sniffer.stream_bins(start, end, bin_s=1.0, direction=direction)
        for direction in (UPLINK, DOWNLINK, None)
    }
    testbed.start_all(join_at=2.0)
    testbed.run(until=45.0)
    for direction, stream in streams.items():
        records = [r for r in sniffer.records if direction in (None, r.direction)]
        expected = throughput_series(records, start, end, bin_s=1.0)
        streamed = stream.series()
        assert expected.bits_per_bin.any()
        assert streamed.bits_per_bin.tobytes() == expected.bits_per_bin.tobytes()
        assert streamed.times_s.tobytes() == expected.times_s.tobytes()
        assert stream.average_kbps() == average_kbps(records, start, end)
