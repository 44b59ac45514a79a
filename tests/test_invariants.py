"""Cross-layer conservation invariants of the whole simulation."""

import hashlib
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.capture.sniffer import DOWNLINK, UPLINK
from repro.measure.session import Testbed
from repro.net.link import Link
from repro.net.packet import Protocol
from repro.obs import NULL_OBS, Observability
from repro.simcore import Simulator


@settings(max_examples=6, deadline=None)
@given(
    st.sampled_from(["vrchat", "recroom", "worlds"]),
    st.integers(min_value=0, max_value=500),
)
def test_server_accounting_matches_capture(platform, seed):
    """Bytes the server says it forwarded to U1 appear on U1's downlink.

    The server's per-member ``forwarded_bytes`` counts avatar payloads;
    the AP capture additionally sees UDP/IP headers, session chatter,
    and control traffic, so capture >= accounting always, and the gap
    stays within the known overhead budget.
    """
    testbed = Testbed(platform, n_users=2, seed=seed)
    testbed.start_all(join_at=2.0)
    testbed.run(until=30.0)
    binding = testbed.deployment.rooms.room(testbed.room_id).members["u1"]
    accounted = binding.forwarded_bytes
    captured = sum(
        r.size
        for r in testbed.u1.sniffer.records
        if r.direction == DOWNLINK and r.protocol is Protocol.UDP
    )
    assert captured >= accounted
    # Overhead (headers + session chatter) is bounded: the accounted
    # avatar bytes still dominate the downlink at steady state.
    assert accounted > 0
    assert captured < accounted * 2.5 + 200_000


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=0, max_value=500))
def test_uplink_capture_matches_socket_counters(seed):
    """U1's sent UDP datagram bytes reappear (plus headers) at the AP."""
    testbed = Testbed("recroom", n_users=2, seed=seed)
    testbed.start_all(join_at=2.0)
    testbed.run(until=25.0)
    socket = testbed.u1.client.data_socket
    captured_payloads = sum(
        r.size - 28
        for r in testbed.u1.sniffer.records
        if r.direction == UPLINK and r.protocol is Protocol.UDP
    )
    # Every datagram fits one packet here, so payload byte counts match.
    assert captured_payloads == socket.sent_bytes


def test_jittered_link_preserves_fifo():
    sim = Simulator(seed=3)

    class Sink:
        name = "sink"

        def __init__(self):
            self.order = []

        def receive(self, packet, link):
            self.order.append(packet.packet_id)

    class Source:
        name = "source"

    sink = Sink()
    link = Link(
        sim, Source(), sink, bandwidth_bps=1e9, delay_s=0.001, jitter_s=0.005
    )
    from repro.net.address import Endpoint, IPAddress
    from repro.net.packet import Packet

    sent = []
    for index in range(200):
        packet = Packet(
            src=Endpoint(IPAddress.parse("10.0.0.1"), 1),
            dst=Endpoint(IPAddress.parse("10.0.0.2"), 2),
            protocol=Protocol.UDP,
            size=100,
        )
        sent.append(packet.packet_id)
        link.send(packet)
    sim.run()
    assert sink.order == sent  # jitter never reorders a FIFO link


def test_jitter_produces_rtt_variance():
    """With backbone jitter enabled, probe RTTs have nonzero spread."""
    testbed = Testbed("altspacevr", n_users=1, seed=0)
    from repro.net.ping import ProbeTool

    endpoint = testbed.deployment.data_endpoint_for(testbed.u1.host, 0)
    tool = ProbeTool(testbed.u1.ap)
    process = testbed.sim.spawn(tool.ping_process(endpoint.ip, count=10))
    testbed.run(until=15.0)
    result = process.value
    assert result.std_rtt_ms > 0.0
    assert result.std_rtt_ms < 1.0  # paper: 0.1-0.3 ms scale


def test_jitter_validation():
    sim = Simulator(seed=0)

    class Stub:
        name = "s"

    with pytest.raises(ValueError):
        Link(sim, Stub(), Stub(), bandwidth_bps=1e6, delay_s=0.0, jitter_s=-1.0)


def test_event_count_is_deterministic():
    def run(seed):
        testbed = Testbed("worlds", n_users=2, seed=seed)
        testbed.start_all(join_at=2.0)
        testbed.run(until=20.0)
        return testbed.sim.event_count

    assert run(9) == run(9)


def _capture_digest(testbed) -> str:
    """SHA-256 over every station's AP capture, in record order."""
    digest = hashlib.sha256()
    for station in testbed.stations:
        for r in station.sniffer.records:
            digest.update(
                struct.pack(
                    "<dIHIHi",
                    r.time,
                    r.src.ip.value,
                    r.src.port,
                    r.dst.ip.value,
                    r.dst.port,
                    r.size,
                )
            )
            digest.update(r.direction.encode())
    return digest.hexdigest()


def test_split_testbed_runs_match_one_run_under_every_bundle():
    """A session run to 30 s in one go, or stopped at 7.5, 12 and 12 s
    on the way, captures the same packets and dispatches the same
    events, whichever observability bundle the simulator carries."""

    def run(make_obs, untils):
        testbed = Testbed("vrchat", n_users=2, seed=3, obs=make_obs())
        testbed.start_all(join_at=2.0)
        testbed.add_peers(2, join_times=[2.0, 2.0])
        for until in untils:
            testbed.run(until=until)
        return _capture_digest(testbed), testbed.sim.event_count

    outcomes = [
        run(make_obs, untils)
        for make_obs in (lambda: NULL_OBS, lambda: Observability(trace=False), Observability)
        for untils in ([30.0], [7.5, 12.0, 12.0, 30.0])
    ]
    assert outcomes == [outcomes[0]] * 6
