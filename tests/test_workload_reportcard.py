"""Tests for public-event churn, the report card, and Workrooms."""

import pytest

from repro.core.report_card import ReportCard, build_report_card
from repro.core.findings import Finding
from repro.measure.workload import CrowdChurn, run_public_event
from repro.measure.session import Testbed
from repro.platforms.profiles import get_profile


def test_public_event_tracks_occupancy():
    """Sec. 6.2: in-the-wild throughput follows the live population."""
    result = run_public_event("vrchat", target_users=10, duration_s=150.0, seed=1)
    assert result.tracks_occupancy
    # The regression slope recovers the per-avatar cost (~24.7 Kbps).
    assert result.per_user_kbps == pytest.approx(24.7, rel=0.2)


def test_public_event_occupancy_churns():
    result = run_public_event("recroom", target_users=8, duration_s=150.0, seed=2)
    occupancies = {sample.occupants for sample in result.samples}
    assert len(occupancies) >= 2  # attendees actually came and went


def test_a_public_event_without_churn_raises():
    """Seed 0's first arrival or departure comes at 152 s, so a 120 s
    window sees one occupancy, which fits no per-user slope."""
    with pytest.raises(ValueError, match="occupancy stayed at 10 over the 12-132 s window"):
        run_public_event("vrchat", target_users=10, duration_s=120.0, seed=0)


def test_crowd_churn_validation():
    testbed = Testbed("vrchat", n_users=1)
    with pytest.raises(ValueError):
        CrowdChurn(testbed, target_users=1)


def test_a_departed_attendee_holds_no_timer_and_is_out_of_the_room():
    testbed = Testbed("vrchat", n_users=1)
    churn = CrowdChurn(
        testbed, target_users=6, churn_interval_s=1.0, churn_probability=1.0
    )
    churn.start(1.0)
    testbed.run(until=40.0)
    room = testbed.deployment.rooms.room(testbed.room_id)
    departed = [peer for peer in testbed.peers if peer not in churn.crowd]
    assert departed and len(testbed.peers) > churn.target_users - 1
    assert set(room.members) == {peer.user_id for peer in churn.crowd}
    # No station runs, so every live tick timer is an attendee's.
    assert len(testbed.sim.ticks) == len(churn.crowd)


def test_workrooms_extension_profile():
    profile = get_profile("workrooms")
    assert profile.name == "workrooms"
    assert profile.features.share_screen  # it is a meeting platform
    assert not profile.features.game
    assert profile.data.room_capacity == 16
    assert profile.data.tcp_priority_coupling


def test_workrooms_reproduces_prior_work_scalability():
    """[14]: Workrooms shows the same linear throughput scaling."""
    from repro.measure.scalability import run_user_sweep
    from repro.measure.stats import linearity_r2

    points = run_user_sweep("workrooms", user_counts=(2, 5, 10, 16), window_s=10.0)
    r2 = linearity_r2(
        [p.n_users for p in points], [p.down_kbps.mean for p in points]
    )
    assert r2 > 0.98
    # Meeting-grade avatars still push multi-Mbps rooms at capacity.
    assert points[-1].down_kbps.mean > 2000.0


def test_workrooms_respects_room_cap():
    from repro.server.rooms import RoomFullError

    testbed = Testbed("workrooms", n_users=1)
    testbed.start_all(join_at=1.0)
    testbed.add_peers(15, join_times=[1.0] * 15)
    # U1's join finishes only after its ~4 MB join download drains.
    testbed.run(until=15.0)
    room = testbed.deployment.rooms.room(testbed.room_id)
    assert len(room) == 16
    with pytest.raises(RoomFullError):
        testbed.deployment.join_room(testbed.room_id, "extra", None, None)


def test_report_card_markdown_rendering():
    card = ReportCard(
        findings=[
            Finding(1, "Channels", True, "ok"),
            Finding(2, "Throughput", False, "worlds off band"),
        ],
        headline={"metric": "value"},
    )
    text = card.to_markdown()
    assert "Finding 1 — Channels: PASS" in text
    assert "Finding 2 — Throughput: FAIL" in text
    assert "- metric: value" in text
    assert not card.all_passed


@pytest.mark.slow
def test_full_report_card_passes():
    """End-to-end: the reduced bundle reproduces all five findings."""
    card = build_report_card(seed=1)
    failed = [f for f in card.findings if not f.passed]
    assert not failed, [f.evidence for f in failed]
    assert "Worlds two-user throughput" in card.headline
