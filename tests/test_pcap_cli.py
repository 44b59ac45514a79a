"""Tests for pcap export and the command-line interface."""

import pytest

from repro.capture.pcap import PCAP_MAGIC, read_pcap, write_pcap
from repro.capture.sniffer import DOWNLINK, PacketRecord, UPLINK
from repro.cli import main
from repro.measure.record import BLOCKS
from repro.net.address import Endpoint, IPAddress
from repro.net.packet import Protocol


def _record(time, proto=Protocol.UDP, size=128):
    return PacketRecord(
        time=time,
        src=Endpoint(IPAddress.parse("10.0.0.1"), 20000),
        dst=Endpoint(IPAddress.parse("12.0.0.9"), 7777),
        protocol=proto,
        size=size,
        direction=UPLINK,
    )


def test_pcap_roundtrip(tmp_path):
    path = tmp_path / "capture.pcap"
    records = [
        _record(1.25),
        _record(2.5, proto=Protocol.TCP, size=1500),
        _record(3.0, proto=Protocol.ICMP, size=84),
    ]
    assert write_pcap(records, str(path)) == 3
    packets = read_pcap(str(path))
    assert len(packets) == 3
    assert packets[0].time == pytest.approx(1.25)
    assert packets[0].src.port == 20000
    assert packets[0].dst == Endpoint(IPAddress.parse("12.0.0.9"), 7777)
    assert packets[1].protocol is Protocol.TCP
    assert packets[1].size == 1500
    assert packets[2].protocol is Protocol.ICMP


def test_pcap_sorted_by_time(tmp_path):
    path = tmp_path / "c.pcap"
    write_pcap([_record(5.0), _record(1.0)], str(path))
    packets = read_pcap(str(path))
    assert [p.time for p in packets] == [1.0, 5.0]


def test_pcap_magic_enforced(tmp_path):
    path = tmp_path / "bogus.pcap"
    path.write_bytes(b"\x00" * 64)
    with pytest.raises(ValueError):
        read_pcap(str(path))


def test_pcap_global_header(tmp_path):
    path = tmp_path / "h.pcap"
    write_pcap([_record(0.0)], str(path))
    import struct

    magic = struct.unpack("<I", path.read_bytes()[:4])[0]
    assert magic == PCAP_MAGIC


def test_cli_platforms(capsys):
    assert main(["platforms"]) == 0
    out = capsys.readouterr().out
    assert "worlds" in out and "Meta" in out


def test_cli_table1():
    table1 = BLOCKS["table1"]
    text = table1.render(table1.run())
    assert "Horizon Worlds" in text
    assert "NFT" in text


def test_cli_quickstart(capsys):
    assert main(["quickstart", "--platform", "vrchat", "--duration", "8"]) == 0
    out = capsys.readouterr().out
    assert "vrchat" in out and "Kbps" in out


def test_cli_viewport():
    viewport = BLOCKS["viewport"]
    text = viewport.render(viewport.run())
    assert "estimated server viewport width" in text


def test_cli_no_command_shows_help(capsys):
    assert main([]) == 0
    assert "usage" in capsys.readouterr().out.lower()


def test_cli_export_pcap(tmp_path, capsys):
    output = tmp_path / "session.pcap"
    assert (
        main(
            [
                "export-pcap",
                "--platform",
                "vrchat",
                "--duration",
                "5",
                "--output",
                str(output),
            ]
        )
        == 0
    )
    packets = read_pcap(str(output))
    assert len(packets) > 50
    protocols = {p.protocol for p in packets}
    assert Protocol.UDP in protocols and Protocol.TCP in protocols
