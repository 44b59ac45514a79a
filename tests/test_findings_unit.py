"""Unit tests for the findings checker on synthetic inputs."""

import dataclasses
import math

import pytest

from repro.core.findings import (
    CHAOS_FINDING_BASE,
    chaos_finding,
    check_finding_1_channels,
    check_finding_2_throughput,
    check_finding_3_scalability,
    check_finding_4_latency,
    check_finding_5_tcp_priority,
)
from repro.measure.stats import Summary


def _summary(mean, std=1.0, count=10):
    return Summary(mean, std, count)


@dataclasses.dataclass
class FakeRow:
    up_kbps: Summary
    down_kbps: Summary
    avatar_kbps: Summary


@dataclasses.dataclass
class FakeForwarding:
    corr: float


def _good_table3():
    return {
        "vrchat": FakeRow(_summary(31.4), _summary(31.3), _summary(24.7)),
        "worlds": FakeRow(_summary(752.0), _summary(413.0), _summary(332.0)),
    }


def test_finding2_passes_on_paper_numbers():
    finding = check_finding_2_throughput(
        _good_table3(), {"recroom": FakeForwarding(corr=0.95)}
    )
    assert finding.passed


def test_finding2_fails_when_platform_exceeds_100kbps():
    table = _good_table3()
    table["vrchat"] = FakeRow(_summary(150.0), _summary(150.0), _summary(120.0))
    finding = check_finding_2_throughput(table, {})
    assert not finding.passed
    assert "exceeds 100" in finding.evidence


def test_finding2_fails_on_weak_forwarding_correlation():
    finding = check_finding_2_throughput(
        _good_table3(), {"recroom": FakeForwarding(corr=0.2)}
    )
    assert not finding.passed


def test_finding2_fails_when_avatar_share_low():
    table = _good_table3()
    table["vrchat"] = FakeRow(_summary(31.4), _summary(31.3), _summary(5.0))
    finding = check_finding_2_throughput(table, {})
    assert not finding.passed
    assert "major portion" in finding.evidence


@dataclasses.dataclass
class FakePoint:
    n_users: int
    down_kbps: Summary
    up_kbps: Summary
    fps: Summary


def _linear_sweep(per_user=30.0, uplink=30.0, fps_drop=20.0):
    points = []
    for n in (1, 5, 10, 15):
        points.append(
            FakePoint(
                n_users=n,
                down_kbps=_summary(per_user * (n - 1) + 5.0),
                up_kbps=_summary(uplink),
                fps=_summary(72.0 - fps_drop * (n - 1) / 14.0),
            )
        )
    return points


def test_finding3_passes_on_linear_sweep():
    finding = check_finding_3_scalability({"vrchat": _linear_sweep()})
    assert finding.passed


def test_finding3_fails_on_nonlinear_downlink():
    points = _linear_sweep()
    points[-1] = FakePoint(15, _summary(5000.0), _summary(30.0), _summary(50.0))
    finding = check_finding_3_scalability({"vrchat": points})
    assert not finding.passed
    assert "not linear" in finding.evidence


def test_finding3_fails_when_uplink_grows():
    points = [
        FakePoint(n, _summary(30.0 * n), _summary(30.0 * n), _summary(60.0))
        for n in (1, 5, 10, 15)
    ]
    finding = check_finding_3_scalability({"vrchat": points})
    assert not finding.passed
    assert "uplink grows" in finding.evidence


def test_finding3_fails_without_fps_degradation():
    finding = check_finding_3_scalability({"vrchat": _linear_sweep(fps_drop=0.0)})
    assert not finding.passed


@dataclasses.dataclass
class FakeBreakdown:
    e2e: Summary
    sender: Summary
    receiver: Summary
    server: Summary


def _good_table4():
    return {
        "recroom": FakeBreakdown(
            _summary(101.7), _summary(25.9), _summary(39.9), _summary(29.9)
        ),
        "vrchat": FakeBreakdown(
            _summary(104.3), _summary(27.3), _summary(37.4), _summary(33.5)
        ),
        "worlds": FakeBreakdown(
            _summary(128.5), _summary(26.2), _summary(49.1), _summary(40.2)
        ),
        "altspacevr": FakeBreakdown(
            _summary(209.2), _summary(24.5), _summary(36.1), _summary(68.6)
        ),
        "hubs": FakeBreakdown(
            _summary(239.1), _summary(42.4), _summary(60.1), _summary(52.2)
        ),
    }


def test_finding4_passes_on_paper_numbers():
    assert check_finding_4_latency(_good_table4()).passed


def test_finding4_fails_if_hubs_not_slowest():
    table = _good_table4()
    table["vrchat"] = FakeBreakdown(
        _summary(400.0), _summary(27.3), _summary(37.4), _summary(33.5)
    )
    finding = check_finding_4_latency(table)
    assert not finding.passed
    assert "not hubs" in finding.evidence


def test_finding4_fails_if_altspace_server_not_highest():
    table = _good_table4()
    table["altspacevr"] = FakeBreakdown(
        _summary(209.2), _summary(24.5), _summary(36.1), _summary(10.0)
    )
    assert not check_finding_4_latency(table).passed


@dataclasses.dataclass
class FakeStage:
    udp_up_kbps: Summary


@dataclasses.dataclass
class FakeRun:
    udp_dead: bool
    frozen: bool
    tcp_recovered: bool
    stages: list


@dataclasses.dataclass
class FakeReport:
    control: object
    data: list


def test_finding1_flags_report_with_no_data_rows():
    finding = check_finding_1_channels({"vrchat": FakeReport(None, [])})
    assert not finding.passed
    assert "no data-channel rows" in finding.evidence


def test_finding2_flags_nan_throughput_instead_of_passing():
    table = _good_table3()
    table["vrchat"] = FakeRow(
        _summary(float("nan")), _summary(float("nan")), _summary(24.7)
    )
    finding = check_finding_2_throughput(table, {})
    assert not finding.passed
    assert "non-finite throughput" in finding.evidence


def test_finding2_flags_infinite_avatar_throughput():
    table = _good_table3()
    table["vrchat"] = FakeRow(
        _summary(31.4), _summary(31.3), _summary(math.inf)
    )
    finding = check_finding_2_throughput(table, {})
    assert not finding.passed
    assert "non-finite avatar throughput" in finding.evidence


def test_finding2_verdict_is_stable_across_repeated_calls():
    table = _good_table3()
    forwarding = {"recroom": FakeForwarding(corr=0.95)}
    first = check_finding_2_throughput(table, forwarding)
    second = check_finding_2_throughput(table, forwarding)
    assert first == second


def test_chaos_finding_numbering_and_validation():
    finding = chaos_finding(3, "chaos: link-flap", True, "ok")
    assert finding.number == CHAOS_FINDING_BASE + 3
    assert finding.passed
    with pytest.raises(ValueError):
        chaos_finding(-1, "bad", False, "")


def test_finding5_pass_and_fail_paths():
    good = FakeRun(True, True, True, [FakeStage(_summary(0.1))])
    assert check_finding_5_tcp_priority(good).passed
    survived = FakeRun(False, False, True, [FakeStage(_summary(500.0))])
    finding = check_finding_5_tcp_priority(survived)
    assert not finding.passed
    assert "survived" in finding.evidence
    no_recovery = FakeRun(True, True, False, [FakeStage(_summary(0.1))])
    assert not check_finding_5_tcp_priority(no_recovery).passed


@pytest.mark.parametrize("final_udp_kbps", [5.0, math.nan])
def test_finding5_needs_the_final_udp_uplink_under_5_kbps(final_udp_kbps):
    run = FakeRun(True, True, True, [FakeStage(_summary(final_udp_kbps))])
    finding = check_finding_5_tcp_priority(run)
    assert not finding.passed
    assert finding.evidence == "UDP resumed after recovery (paper: it does not)"
