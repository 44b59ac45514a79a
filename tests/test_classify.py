"""Unit tests for control/data channel classification."""

from repro.capture.classify import (
    CONTROL,
    DATA,
    channel_records,
    classify_by_activity,
    protocol_label,
)
from repro.capture.flows import FlowTable
from repro.capture.sniffer import PacketRecord, UPLINK
from repro.measure.session import Testbed, download_drain_s
from repro.net.address import Endpoint, IPAddress
from repro.net.packet import Protocol


def _record(time, size=100, remote_port=7777, proto=Protocol.UDP):
    device = Endpoint(IPAddress.parse("10.0.0.1"), 20000)
    server = Endpoint(IPAddress.parse("12.0.0.1"), remote_port)
    return PacketRecord(
        time=time, src=device, dst=server, protocol=proto, size=size, direction=UPLINK
    )


def _mixed_table():
    records = []
    # HTTPS flow busy during the welcome phase (0-10 s).
    for t in range(0, 10):
        records.append(_record(float(t), size=2000, remote_port=443, proto=Protocol.TCP))
    # UDP flow busy during the event phase (10-20 s).
    for t in range(10, 20):
        records.append(_record(float(t), size=1500, remote_port=7777))
    return FlowTable(records)


def test_protocol_labels():
    table = FlowTable(
        [
            _record(0.0, remote_port=443, proto=Protocol.TCP),
            _record(0.0, remote_port=7777),
            _record(0.0, remote_port=5004),
            _record(0.0, remote_port=8080, proto=Protocol.TCP),
        ]
    )
    labels = {flow.remote.port: protocol_label(flow) for flow in table}
    assert labels[443] == "HTTPS"
    assert labels[7777] == "UDP"
    assert labels[5004] == "RTP/RTCP"
    assert labels[8080] == "TCP"


def test_classify_by_activity_matches_phases():
    table = _mixed_table()
    classified = classify_by_activity(table, (0.0, 10.0), (10.0, 20.0))
    channel_by_port = {c.flow.remote.port: c.channel for c in classified}
    assert channel_by_port[443] == CONTROL
    assert channel_by_port[7777] == DATA


def test_activity_reclassifies_event_heavy_https():
    """Hubs-style: HTTPS that carries event traffic is a data channel."""
    records = []
    for t in range(0, 10):
        records.append(_record(float(t), size=200, remote_port=443, proto=Protocol.TCP))
    for t in range(10, 20):
        records.append(
            _record(float(t), size=5000, remote_port=443, proto=Protocol.TCP)
        )
    table = FlowTable(records)
    classified = classify_by_activity(table, (0.0, 10.0), (10.0, 20.0))
    assert classified[0].channel == DATA
    assert classified[0].protocol_label == "HTTPS"


def test_tiny_flows_fall_back_to_protocol_rule():
    records = [_record(15.0, size=64, remote_port=443, proto=Protocol.TCP)]
    table = FlowTable(records)
    classified = classify_by_activity(table, (0.0, 10.0), (10.0, 20.0))
    assert classified[0].channel == CONTROL  # protocol rule, not activity


def test_channel_records_helper():
    table = _mixed_table()
    classified = classify_by_activity(table, (0.0, 10.0), (10.0, 20.0))
    records = channel_records(classified, DATA)
    assert len(records) == 10
    assert records == sorted(records, key=lambda r: r.time)
    assert {r.dst.port for r in records} == {7777}
    assert {r.dst.port for r in channel_records(classified, CONTROL)} == {443}


def _labels_by_channel(classified):
    labels = {CONTROL: set(), DATA: set()}
    for item in classified:
        labels[item.channel].add(item.protocol_label)
    return labels


def test_activity_puts_vrchat_https_on_control_and_udp_on_data():
    """A real VRChat capture: HTTPS flows are control, UDP flows data."""
    testbed = Testbed("vrchat", n_users=2, seed=0)
    testbed.start_all(join_at=20.0)
    testbed.run(until=60.0)
    table = FlowTable(testbed.u1.sniffer.records)
    labels = _labels_by_channel(classify_by_activity(table, (2.0, 20.0), (30.0, 60.0)))
    assert "HTTPS" in labels[CONTROL] and "HTTPS" not in labels[DATA]
    assert "UDP" in labels[DATA] and "UDP" not in labels[CONTROL]


def test_activity_puts_hubs_https_on_the_data_side():
    """A real Hubs capture: the avatar WebSocket makes HTTPS data."""
    testbed = Testbed("hubs", n_users=2, seed=0)
    testbed.start_all(join_at=10.0)
    drain = download_drain_s(testbed.profile)
    testbed.run(until=10.0 + drain + 40.0)
    table = FlowTable(testbed.u1.sniffer.records)
    event_window = (10.0 + drain, 10.0 + drain + 40.0)
    labels = _labels_by_channel(classify_by_activity(table, (2.0, 10.0), event_window))
    assert "HTTPS" in labels[DATA]
