"""Programmatic checks of the paper's five numbered findings (Sec. 1).

Each ``check_finding_*`` takes the relevant experiment results and
returns a :class:`Finding` with a pass/fail verdict plus the evidence
string — the integration tests and the benchmark summaries both build
on these.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from ..measure.stats import linearity_r2


@dataclasses.dataclass(frozen=True)
class Finding:
    """One checked claim from the paper."""

    number: int
    title: str
    passed: bool
    evidence: str


#: Chaos resiliency verdicts are numbered from here, well above the
#: paper's five findings, so report cards can mix both families without
#: colliding.
CHAOS_FINDING_BASE = 100


def chaos_finding(index: int, title: str, passed: bool, evidence: str) -> Finding:
    """Build the :class:`Finding` for one chaos campaign cell."""
    if index < 0:
        raise ValueError(f"chaos finding index must be >= 0, got {index}")
    return Finding(CHAOS_FINDING_BASE + index, title, passed, evidence)


#: QoE/SLO verdicts get their own number block above the chaos family.
QOE_FINDING_BASE = 200


def qoe_finding(index: int, title: str, passed: bool, evidence: str) -> Finding:
    """Build the :class:`Finding` for one QoE SLO evaluation."""
    if index < 0:
        raise ValueError(f"qoe finding index must be >= 0, got {index}")
    return Finding(QOE_FINDING_BASE + index, title, passed, evidence)


def _bad_number(value) -> bool:
    """True for None/NaN/inf — values no verdict may silently compare.

    A NaN mean makes every ``>=`` threshold comparison False, which
    would let a broken measurement *pass* checks phrased as "no value
    exceeds X"; flag it explicitly instead.
    """
    return value is None or not math.isfinite(value)


def check_finding_1_channels(infrastructure_reports: typing.Mapping) -> Finding:
    """Finding 1: distinct control/data channels; some servers >70 ms."""
    problems = []
    far_servers = []
    for name, report in infrastructure_reports.items():
        if not report.data:
            problems.append(f"{name} (no data-channel rows)")
            continue
        control_ips = {report.control.east_ip}
        data_ips = {item.east_ip for item in report.data}
        owners_differ = report.control.owner != report.data[0].owner
        endpoints_differ = bool(data_ips - control_ips)
        hostnames_differ = (
            report.control.hostname is not None
            and report.data[0].hostname is not None
            and report.control.hostname != report.data[0].hostname
        )
        rtts_differ = (
            abs(report.control.east_rtt.mean - report.data[0].east_rtt.mean) > 10.0
        )
        if not (owners_differ or endpoints_differ or hostnames_differ or rtts_differ):
            # Hubs legitimately shares the HTTPS server between the two
            # channels — its second data row (RTP) must then differ.
            if len(report.data) < 2 or report.data[-1].east_ip == report.control.east_ip:
                problems.append(name)
        for item in [report.control] + report.data:
            if item.east_rtt.mean is not None and item.east_rtt.mean > 70.0:
                far_servers.append(f"{name}:{item.channel}")
    passed = not problems and bool(far_servers)
    return Finding(
        1,
        "Distinct control/data channels; some servers >70 ms away",
        passed,
        f"far servers: {sorted(set(far_servers))}; "
        f"platforms lacking separation: {problems or 'none'}",
    )


def check_finding_2_throughput(
    table3: typing.Mapping, forwarding: typing.Mapping
) -> Finding:
    """Finding 2: <100 Kbps except Worlds (~750/410); direct forwarding."""
    issues = []
    for name, row in table3.items():
        up, down = row.up_kbps.mean, row.down_kbps.mean
        if _bad_number(up) or _bad_number(down):
            issues.append(f"{name}: non-finite throughput ({up}/{down})")
            continue
        if name == "worlds":
            if not (500 <= up <= 1000 and 250 <= down <= 600):
                issues.append(f"worlds throughput off: {up:.0f}/{down:.0f}")
        else:
            if up >= 100 or down >= 100:
                issues.append(f"{name} exceeds 100 Kbps")
        if row.avatar_kbps is not None:
            if _bad_number(row.avatar_kbps.mean):
                issues.append(f"{name}: non-finite avatar throughput")
            elif row.avatar_kbps.mean < 0.4 * down:
                issues.append(f"{name}: avatar data is not the major portion")
    for name, evidence in forwarding.items():
        if evidence.corr < 0.5:
            issues.append(f"{name}: U1-up/U2-down correlation {evidence.corr:.2f}")
    return Finding(
        2,
        "Two-user throughput low (Worlds ~10x); servers forward avatar data",
        not issues,
        "; ".join(issues) or "all platforms within the paper's bands",
    )


def check_finding_3_scalability(sweeps: typing.Mapping) -> Finding:
    """Finding 3: downlink linear in users; FPS degrades; uplink flat."""
    issues = []
    for name, points in sweeps.items():
        counts = [p.n_users for p in points]
        downs = [p.down_kbps.mean for p in points]
        ups = [p.up_kbps.mean for p in points]
        fps = [p.fps.mean for p in points]
        r2 = linearity_r2(counts, downs)
        if r2 < 0.98:
            issues.append(f"{name}: downlink not linear (R2={r2:.3f})")
        if max(ups) > 1.35 * max(min(ups), 1e-9):
            issues.append(f"{name}: uplink grows with users")
        if fps[-1] >= fps[0] - 1.0:
            issues.append(f"{name}: FPS does not degrade")
    return Finding(
        3,
        "Throughput scales linearly with users; FPS and resources degrade",
        not issues,
        "; ".join(issues) or "linear growth and FPS degradation on all platforms",
    )


def check_finding_4_latency(table4: typing.Mapping) -> Finding:
    """Finding 4: Hubs slowest; AltspaceVR's server slowest; receiver-heavy."""
    issues = []
    e2e = {name: row.e2e.mean for name, row in table4.items()}
    if max(e2e, key=e2e.get) != "hubs":
        issues.append(f"highest E2E is {max(e2e, key=e2e.get)}, not hubs")
    server = {name: row.server.mean for name, row in table4.items()}
    if max(server, key=server.get) != "altspacevr":
        issues.append("highest server latency is not altspacevr")
    for name, row in table4.items():
        if name == "altspacevr":
            continue
        if row.receiver.mean <= row.server.mean:
            issues.append(f"{name}: receiver latency not above server latency")
        # Paper: receiver processing is at least ~10 ms above the
        # sender's; VRChat sits right at that bound (37.4 vs 27.3), so
        # allow sampling noise around it.
        if row.receiver.mean < row.sender.mean + 5.0:
            issues.append(f"{name}: receiver not clearly above sender")
    return Finding(
        4,
        "Hubs has the highest E2E; AltspaceVR the highest server latency; "
        "receiver-side processing dominates",
        not issues,
        "; ".join(issues) or "latency ordering matches Table 4",
    )


def check_finding_5_tcp_priority(run) -> Finding:
    """Finding 5: TCP uplink has priority over UDP uplink on Worlds."""
    issues = []
    if not run.udp_dead:
        issues.append("UDP session survived 100% TCP loss")
    if not run.frozen:
        issues.append("screen did not freeze")
    if not run.tcp_recovered:
        issues.append("TCP did not recover after the loss cleared")
    final_stage = run.stages[-1]
    if not final_stage.udp_up_kbps.mean < 5.0:  # a NaN mean is an issue too
        issues.append("UDP resumed after recovery (paper: it does not)")
    return Finding(
        5,
        "Worlds prioritizes TCP uplink over UDP uplink",
        not issues,
        "; ".join(issues)
        or "UDP gated on TCP delivery, killed by 100% TCP loss, TCP recovered",
    )
