"""Unit tests for PlatformDeployment and LightweightPeer."""

import pytest

from repro.measure.session import Testbed
from repro.platforms.profiles import get_profile
from repro.server.forwarding import DATA_PORT
from repro.server.rooms import RoomFullError


def test_udp_platform_endpoints():
    testbed = Testbed("recroom", n_users=2)
    deployment = testbed.deployment
    control = deployment.control_endpoint_for(testbed.u1.host, 0)
    data = deployment.data_endpoint_for(testbed.u1.host, 0)
    assert control.port == 443
    assert data.port == DATA_PORT
    assert control.ip != data.ip  # different providers (ANS/Cloudflare)


def test_hubs_data_endpoint_is_control_server():
    """Hubs: avatar state rides the same HTTPS service as control."""
    testbed = Testbed("hubs", n_users=1)
    deployment = testbed.deployment
    control = deployment.control_endpoint_for(testbed.u1.host, 0)
    data = deployment.data_endpoint_for(testbed.u1.host, 0)
    assert control == data
    from repro.server.control import ControlService

    assert isinstance(deployment.data_server_for(testbed.u1.host, 0), ControlService)


def test_data_server_for_udp_platform():
    from repro.server.forwarding import AvatarDataServer
    from repro.server.viewport_adaptive import ViewportAdaptiveServer

    recroom = Testbed("recroom", n_users=1)
    assert isinstance(
        recroom.deployment.data_server_for(recroom.u1.host, 0), AvatarDataServer
    )
    altspace = Testbed("altspacevr", n_users=1)
    assert isinstance(
        altspace.deployment.data_server_for(altspace.u1.host, 0),
        ViewportAdaptiveServer,
    )


def test_processing_delay_grows_with_room_size():
    testbed = Testbed("hubs", n_users=1)
    deployment = testbed.deployment
    small = [deployment._data_processing_delay(2) for _ in range(200)]
    large = [deployment._data_processing_delay(7) for _ in range(200)]
    assert sum(large) / len(large) > sum(small) / len(small) + 0.025


def test_join_and_leave_room():
    testbed = Testbed("vrchat", n_users=1)
    deployment = testbed.deployment
    binding = deployment.join_room("r1", "alice", None, None)
    assert binding.joined_at == testbed.sim.now
    assert "alice" in deployment.rooms.room("r1").members
    deployment.leave_room("r1", "alice")
    assert "alice" not in deployment.rooms.room("r1").members


def test_lightweight_peer_counts_bytes_without_packets():
    testbed = Testbed("vrchat", n_users=1)
    testbed.start_all(join_at=2.0)
    peers = testbed.add_peers(2, join_times=[2.0, 2.0])
    testbed.run(until=20.0)
    server = testbed.deployment.data_server_for(testbed.u1.host, 0)
    # Forwards between the two unobserved peers are counted, not sent.
    assert server.unobserved_forwarded_bytes > 0
    room = testbed.deployment.rooms.room(testbed.room_id)
    peer_binding = room.members["peer-1"]
    assert peer_binding.forwarded_bytes > 0
    assert not peer_binding.observed


def test_lightweight_peer_stop_leaves_room():
    testbed = Testbed("vrchat", n_users=1)
    testbed.start_all(join_at=2.0)
    peers = testbed.add_peers(1, join_times=[2.0])
    testbed.run(until=10.0)
    room = testbed.deployment.rooms.room(testbed.room_id)
    assert "peer-1" in room.members
    peers[0].stop()
    testbed.run(until=12.0)
    assert "peer-1" not in room.members


def test_a_rejected_peer_leaves_nothing_behind():
    testbed = Testbed("worlds", n_users=1)
    room = testbed.deployment.rooms.room(testbed.room_id)
    testbed.add_peers(room.capacity)
    members, timers = dict(room.members), len(testbed.sim.ticks)
    with pytest.raises(RoomFullError):
        testbed.add_peers(1)
    assert room.members == members
    assert len(testbed.peers) == room.capacity == timers
    assert len(testbed.sim.ticks) == timers


def test_a_stopped_peer_holds_no_timer_and_keeps_its_id():
    testbed = Testbed("vrchat", n_users=1)
    room = testbed.deployment.rooms.room(testbed.room_id)
    first, second = testbed.add_peers(2)
    testbed.run(until=1.0)
    first.stop()
    assert first.user_id not in room.members
    assert len(testbed.sim.ticks) == 1
    (third,) = testbed.add_peers(1)
    assert set(room.members) == {second.user_id, third.user_id}
    assert len({first.user_id, second.user_id, third.user_id}) == 3
    testbed.run(until=2.0)
    assert len(testbed.sim.ticks) == 2


def test_worlds_load_balances_two_users():
    testbed = Testbed("worlds", n_users=2)
    deployment = testbed.deployment
    first = deployment.data_endpoint_for(testbed.u1.host, 0)
    second = deployment.data_endpoint_for(testbed.u2.host, 1)
    assert first.ip != second.ip  # two instances per site


def test_inter_instance_forwarding_still_delivers():
    """U1 and U2 on different Worlds server instances still exchange
    avatars (backend relay with a small extra delay)."""
    testbed = Testbed("worlds", n_users=2, seed=0)
    testbed.start_all(join_at=2.0)
    testbed.run(until=25.0)
    assert "u2" in testbed.u1.client.remote_avatars
    room = testbed.deployment.rooms.room(testbed.room_id)
    u1_binding = room.members["u1"]
    u2_binding = room.members["u2"]
    assert u1_binding.server is not u2_binding.server


def test_get_profile_instances_are_shared():
    assert get_profile("vrchat") is get_profile("VRChat")
