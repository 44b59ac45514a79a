"""Integration tests: Table 2 (Sec. 4) infrastructure probing."""

import pytest

from repro.measure.infrastructure import probe_infrastructure


@pytest.fixture(scope="module")
def reports():
    return {
        name: probe_infrastructure(name)
        for name in ("altspacevr", "recroom", "vrchat", "worlds", "hubs")
    }


def test_all_control_channels_are_https(reports):
    for report in reports.values():
        assert report.control.protocol == "HTTPS"


def test_data_channel_protocols(reports):
    assert reports["vrchat"].data[0].protocol == "UDP"
    assert reports["recroom"].data[0].protocol == "UDP"
    assert reports["worlds"].data[0].protocol == "UDP"
    assert reports["altspacevr"].data[0].protocol == "UDP"
    hubs_protocols = {item.protocol for item in reports["hubs"].data}
    assert hubs_protocols == {"HTTPS", "RTP/RTCP"}


def test_anycast_flags_match_table2(reports):
    assert bool(reports["altspacevr"].control.anycast)
    assert bool(reports["recroom"].control.anycast)
    assert bool(reports["recroom"].data[0].anycast)
    assert bool(reports["vrchat"].data[0].anycast)
    assert not reports["vrchat"].control.anycast
    assert not reports["worlds"].control.anycast
    assert not reports["worlds"].data[0].anycast
    assert not reports["hubs"].control.anycast
    assert not reports["altspacevr"].data[0].anycast


def test_far_west_coast_servers(reports):
    """AltspaceVR data, Hubs control/data: western US, >70 ms RTT."""
    assert reports["altspacevr"].data[0].location == "western-us"
    assert reports["altspacevr"].data[0].east_rtt.mean > 70.0
    assert reports["hubs"].control.location == "western-us"
    assert reports["hubs"].control.east_rtt.mean > 70.0
    for item in reports["hubs"].data:
        assert item.east_rtt.mean > 70.0


def test_near_servers_under_4ms(reports):
    assert reports["vrchat"].control.east_rtt.mean < 4.0
    assert reports["vrchat"].data[0].east_rtt.mean < 4.0
    assert reports["recroom"].data[0].east_rtt.mean < 4.0
    assert reports["worlds"].control.east_rtt.mean < 4.0
    assert reports["worlds"].data[0].east_rtt.mean < 4.0


def test_owners_match_table2(reports):
    assert reports["altspacevr"].control.owner == "Microsoft"
    assert reports["altspacevr"].data[0].owner == "Microsoft"
    assert reports["recroom"].control.owner == "ANS"
    assert reports["recroom"].data[0].owner == "Cloudflare"
    assert reports["vrchat"].control.owner == "AWS"
    assert reports["vrchat"].data[0].owner == "Cloudflare"
    assert reports["worlds"].control.owner == "Meta"
    assert reports["hubs"].control.owner == "AWS"


def test_anycast_location_masked(reports):
    """Table 2 marks locations '-' when anycast is in play."""
    assert reports["recroom"].control.location == "-"
    assert reports["altspacevr"].control.location == "-"
    assert reports["recroom"].data[0].location == "-"


def test_worlds_distinct_hostnames(reports):
    """Sec. 4.1: edge-star vs oculus-verts hostnames."""
    control = reports["worlds"].control.hostname
    data = reports["worlds"].data[0].hostname
    assert control and data and control != data
    assert "edge-star" in control
    assert "oculus-verts" in data


def test_hubs_voice_rtt_via_webrtc(reports):
    """Both pings are blocked; RTT comes from WebRTC stats (Sec. 4.2)."""
    voice = next(i for i in reports["hubs"].data if i.channel == "voice")
    assert voice.rtt_method == "webrtc"
    assert voice.east_rtt.mean > 70.0


def test_same_server_assignment(reports):
    """Sec. 4.2: only AltspaceVR and the Hubs servers re-use one server
    for both co-located users."""
    assert reports["altspacevr"].data[0].same_server_for_colocated_users
    assert all(i.same_server_for_colocated_users for i in reports["hubs"].data)
    assert not reports["recroom"].data[0].same_server_for_colocated_users
    assert not reports["vrchat"].data[0].same_server_for_colocated_users
    assert not reports["worlds"].data[0].same_server_for_colocated_users


def test_channels_differ_between_control_and_data(reports):
    """Finding 1: the two channels are served separately."""
    for name, report in reports.items():
        if name == "hubs":
            continue  # Hubs shares the HTTPS server; its RTP differs
        assert report.control.east_ip != report.data[0].east_ip


def test_probing_follows_the_seed(reports):
    """Each seed probes through its own jitter draws; the default is seed 0."""
    other = probe_infrastructure("vrchat", seed=5)
    assert repr(probe_infrastructure("vrchat", seed=0)) == repr(reports["vrchat"])
    assert other.control.east_rtt.mean != reports["vrchat"].control.east_rtt.mean
