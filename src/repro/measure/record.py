"""The paper record: one block per table, figure and study.

``benchmarks/RESULTS.txt`` is the committed record of the paper's
artifacts.  Each :class:`Block` here names the registry experiment that
regenerates one of them, the arguments the record runs it with, and the
one renderer that turns the result into the block's text, paper
reference values included.  The paper benches, ``python -m repro
<block>`` and the generated tables in EXPERIMENTS.md all print through
these renderers, so they cannot disagree.

Building the CLI parser lists the blocks, so this module imports only
:mod:`repro.measure.report`; the experiment registry is built when a
block runs.
"""

from __future__ import annotations

import dataclasses
import re
import typing

from .report import render_series, render_table

BANNER = "=" * 78


@dataclasses.dataclass(frozen=True)
class Block:
    """One artifact of the record: what to run and how to print it."""

    name: str  # CLI subcommand and EXPERIMENTS.md marker
    title: str
    experiment: str  # a name in repro.measure.experiment's registry
    render: typing.Callable[[typing.Any], str]
    kwargs: typing.Mapping = dataclasses.field(default_factory=dict)

    def run(self):
        """Run the block's experiment with the record's arguments."""
        from .experiment import run_experiment

        return run_experiment(self.experiment, **self.kwargs)


#: Every block by name, in the order RESULTS.txt holds them.
BLOCKS: typing.Dict[str, Block] = {}


def _block(name: str, title: str, experiment: str, **kwargs):
    """Declare the decorated renderer as block ``name``'s."""

    def declare(render):
        BLOCKS[name] = Block(name, title, experiment, render, kwargs)
        return render

    return declare


def format_block(title: str, text: str) -> str:
    """A block as RESULTS.txt holds it: banner, title, banner, text."""
    return f"{BANNER}\n{title}\n{BANNER}\n{text}"


_MARKED = re.compile(r"(<!-- record:([\w-]+) -->\n).*?(<!-- /record:\2 -->)", re.S)


def fill_markers(document: str, texts: typing.Mapping[str, str]) -> str:
    """``document`` with each ``<!-- record:NAME -->`` section set to
    block NAME's text, fenced, up to its ``<!-- /record:NAME -->``."""
    return _MARKED.sub(
        lambda match: f"{match[1]}```text\n{texts[match[2]]}\n```\n{match[3]}",
        document,
    )


# ----------------------------------------------------------------------
# The blocks, in record order
# ----------------------------------------------------------------------
#: Fig. 11 paper anchors: E2E (ms) at 2 and 7 users.
FIG11_PAPER = {"hubs": (239.1, 295.4), "worlds": (128.5, 181.4), "recroom": (101.7, 140.3)}


@_block(
    "fig11",
    "Fig. 11 — E2E latency vs event size (paper: grows with users, with "
    "increasing per-user deltas)",
    "latency-scaling", user_counts=(2, 3, 5, 7), seed=0,
)
def _fig11(results) -> str:
    counts = [item.n_users for item in next(iter(results.values()))]
    headers = ["Platform"] + [f"n={n}" for n in counts] + ["paper n=2", "paper n=7"]
    rows = []
    for name, series in results.items():
        anchors = FIG11_PAPER.get(name, ("-", "-"))
        rows.append([name] + [f"{item.e2e.mean:.1f}" for item in series] + list(anchors))
    return render_table(headers, rows)


@_block(
    "fig12",
    "Fig. 12 — Worlds downlink disruption (paper: client uses all "
    "remaining bandwidth; tight downlink disturbs the uplink, raises "
    "CPU toward 100%, drops GPU slightly, FPS collapses with stale "
    "frames, everything recovers at 'N')",
    "downlink-disruption",
)
def _fig12(run) -> str:
    headers = [
        "Stage (Mbps)", "Uplink (Kbps)", "Downlink (Kbps)", "CPU %", "GPU %", "FPS", "Stale/s",
    ]
    rows = [
        [
            stage.label,
            f"{stage.up_kbps.mean:.0f}",
            f"{stage.down_kbps.mean:.0f}",
            f"{stage.cpu_pct.mean:.0f}",
            f"{stage.gpu_pct.mean:.0f}",
            f"{stage.fps.mean:.0f}",
            f"{stage.stale_per_s.mean:.0f}",
        ]
        for stage in run.stages
    ]
    return (
        render_table(headers, rows)
        + "\n\n"
        + render_series("uplink over time (Kbps)", run.up_kbps)
        + "\n"
        + render_series("downlink over time (Kbps)", run.down_kbps)
    )


@_block(
    "fig13",
    "Fig. 13 — Worlds uplink disruption (paper: UDP gaps track the TCP "
    "delay; 100% TCP loss kills UDP after ~30 s and freezes the screen; "
    "TCP recovers, UDP does not; the game clock stalls)",
    "uplink-disruption",
)
def _fig13(runs) -> str:
    bandwidth_run, tcp_run = runs
    headers = ["Stage", "UDP up (Kbps)", "TCP up (Kbps)", "Downlink (Kbps)"]

    def stage_rows(run):
        return [
            [
                stage.label,
                f"{stage.udp_up_kbps.mean:.0f}",
                f"{stage.tcp_up_kbps.mean:.0f}",
                f"{stage.down_kbps.mean:.0f}",
            ]
            for stage in run.stages
        ]

    return (
        render_table(headers, stage_rows(bandwidth_run), title="Top: uplink bandwidth stages (Mbps)")
        + "\n\n"
        + render_table(
            headers,
            stage_rows(tcp_run),
            title="Bottom: TCP-only shaping (delay 5/10/15 s, then 100% loss)",
        )
        + "\n\n"
        + render_series("UDP uplink over time (Kbps)", tcp_run.udp_up_kbps)
        + "\n"
        + render_series("TCP uplink over time (Kbps)", tcp_run.tcp_up_kbps)
        + "\n\n"
        + f"UDP session dead: {tcp_run.udp_dead}  screen frozen: {tcp_run.frozen}  "
        + f"TCP recovered: {tcp_run.tcp_recovered}  "
        + f"clock sync stale during delays: {tcp_run.clock_sync_stale_during_delay}"
    )


@_block(
    "fig2",
    "Fig. 2 — Channel activity per stage (paper: control busy on the "
    "welcome page, data during the event; Hubs keeps both active)",
    "channels", seed=0,
)
def _fig2(timelines) -> str:
    blocks = []

    def clipped(series, cap=600.0):
        # Like the paper's Fig. 2 note: omit the >100 Mbps initial data
        # download of Hubs so the channel pattern stays readable.
        return [min(value, cap) for value in series]

    for name, timeline in timelines.items():
        join = int(timeline.event_join_at)
        blocks.append(f"--- {name} (event join at {join}s; downloads clipped) ---")
        blocks.append(render_series("control uplink (Kbps)", clipped(timeline.control_up_kbps)))
        blocks.append(
            render_series("control downlink (Kbps)", clipped(timeline.control_down_kbps))
        )
        blocks.append(render_series("data uplink (Kbps)", clipped(timeline.data_up_kbps)))
        blocks.append(render_series("data downlink (Kbps)", clipped(timeline.data_down_kbps)))
    return "\n".join(blocks)


@_block(
    "fig3",
    "Fig. 3 — Forwarding evidence (paper: series match; Worlds' "
    "downlink is a stable fraction of the uplink)",
    "forwarding", seed=0,
)
def _fig3(evidence) -> str:
    blocks = []
    rows = []
    for name, item in evidence.items():
        blocks.append(f"--- {name} ---")
        blocks.append(render_series("U1 uplink (Kbps)", item.u1_up_kbps))
        blocks.append(render_series("U2 downlink (Kbps)", item.u2_down_kbps))
        rows.append([name, f"{item.corr:.3f}", f"{item.down_up_ratio:.3f}"])
    table = render_table(["Platform", "corr(U1 up, U2 down)", "down/up ratio"], rows)
    return "\n".join(blocks) + "\n\n" + table


@_block(
    "fig6",
    "Fig. 6 — Join timeline (paper: downlink steps up per join on all "
    "platforms; only AltspaceVR's drops when avatars leave the viewport; "
    "altspacevr-exp2 starts facing a corner, Fig. 6(f))",
    "join-timeline", seed=0,
)
def _fig6(timelines) -> str:
    blocks = []
    rows = []
    for name, timeline in timelines.items():
        blocks.append(
            f"--- {name} (joins at {timeline.join_times}, turn at "
            f"{timeline.turn_at:.0f}s) ---"
        )
        blocks.append(render_series("downlink (Kbps)", timeline.down_kbps))
        blocks.append(render_series("uplink (Kbps)", timeline.up_kbps))
        rows.append(
            [
                name,
                f"{timeline.down_before_turn_kbps:.1f}",
                f"{timeline.down_after_turn_kbps:.1f}",
            ]
        )
    table = render_table(["Platform", "down before turn (Kbps)", "down after turn (Kbps)"], rows)
    return "\n".join(blocks) + "\n\n" + table


@_block(
    "fig7",
    "Fig. 7 — Scalability sweep (paper: linear downlink growth, Worlds "
    ">4.5 Mbps at 15 users; FPS drops ~25% on Worlds, 72->33 on Hubs)",
    "scalability", user_counts=(1, 2, 3, 5, 7, 10, 12, 15), seed=0,
)
def _fig7(sweeps) -> str:
    from .stats import linearity_r2

    counts = [p.n_users for p in next(iter(sweeps.values()))]
    headers = ["Platform"] + [f"n={n}" for n in counts] + ["R2(linear)"]
    throughput_rows = []
    fps_rows = []
    for name, points in sweeps.items():
        downs = [p.down_kbps.mean for p in points]
        r2 = linearity_r2([p.n_users for p in points], downs)
        throughput_rows.append([name] + [f"{d / 1000:.2f}" for d in downs] + [f"{r2:.3f}"])
        fps_rows.append([name] + [f"{p.fps.mean:.0f}" for p in points] + [""])
    return (
        render_table(headers, throughput_rows, title="Downlink (Mbps)")
        + "\n\n"
        + render_table(headers, fps_rows, title="Average FPS")
    )


@_block(
    "fig8",
    "Fig. 8 — On-device resources (paper: Hubs CPU highest, ~100% at 15; "
    "AltspaceVR leans on the GPU (+25% GPU vs +15% CPU); ~10 MB per avatar; "
    "Worlds ~2 GB at 15 users)",
    "scalability", user_counts=(1, 5, 10, 15), seed=1,
)
def _fig8(sweeps) -> str:
    counts = [p.n_users for p in next(iter(sweeps.values()))]
    headers = (
        ["Platform"]
        + [f"CPU n={n}" for n in counts]
        + [f"GPU n={n}" for n in counts]
        + [f"Mem n={counts[0]} (MB)", f"Mem n={counts[-1]} (MB)"]
    )
    rows = []
    for name, points in sweeps.items():
        rows.append(
            [name]
            + [f"{p.cpu_pct.mean:.0f}" for p in points]
            + [f"{p.gpu_pct.mean:.0f}" for p in points]
            + [f"{points[0].memory_mb.mean:.0f}", f"{points[-1].memory_mb.mean:.0f}"]
        )
    return render_table(headers, rows)


@_block(
    "fig9",
    "Fig. 9 — Private Hubs server, 15-28 users (paper: downlink keeps "
    "growing linearly to ~2 Mbps; FPS drops another ~32%)",
    "hubs-large", user_counts=(15, 20, 25, 28), seed=0,
)
def _fig9(points) -> str:
    rows = [[p.n_users, f"{p.down_kbps.mean / 1000:.2f}", f"{p.fps.mean:.0f}"] for p in points]
    return render_table(["Users", "Downlink (Mbps)", "FPS"], rows)


@_block(
    "remote-rendering",
    "Sec. 6.3 — Remote rendering as the scalability fix",
    "remote-rendering", user_counts=(2, 5, 15, 50, 100),
)
def _remote_rendering(study) -> str:
    comparison_rows = [
        [
            item.n_users,
            f"{item.forwarding_mbps:.2f}",
            f"{item.remote_rendering_mbps:.2f}",
            "RR" if item.remote_rendering_wins else "forwarding",
        ]
        for item in study["comparison"]
    ]
    ablation_rows = [[point.n_users, f"{point.down_mbps:.2f}"] for point in study["ablation"]]
    return (
        render_table(
            ["Users", "Forwarding (Mbps)", "Remote rendering (Mbps)", "Cheaper"],
            comparison_rows,
            title="Analytical comparison (Worlds-grade avatars, 1080p60 stream)",
        )
        + f"\n\ncrossover at {study['crossover_users']} users "
        "(paper: ~100-user Worlds event would need ~30 Mbps downlink, above "
        "the 25 Mbps FCC broadband bar)\n\n"
        + render_table(
            ["Users in room", "Viewer downlink (Mbps)"],
            ablation_rows,
            title="Packet-level ablation: remote-rendering viewer downlink is flat",
        )
    )


@_block(
    "latency-loss",
    "Sec. 8.2 — Latency/loss QoE (paper: chat degrades past ~300 ms E2E; "
    "games already suffer at +50 ms; up to 20% loss is imperceptible)",
    "qoe",
    platforms=("recroom", "worlds"),
    latency_stages_ms=(50, 100, 200, 300),
    loss_stages=(0.05, 0.10, 0.20),
    seed=0,
)
def _latency_loss(results) -> str:
    headers = ["Platform", "Disruption", "Disturbed?", "Why"]
    rows = []
    for name, assessments in results.items():
        for item in assessments:
            if item.loss_rate > 0:
                label = f"loss {item.loss_rate:.0%}"
            else:
                label = f"+{item.added_latency_ms:.0f} ms"
            rows.append([name, label, "yes" if item.disturbed else "no", item.reason])
    return render_table(headers, rows)


@_block(
    "solutions",
    "Ablation — candidate architectures (paper Sec. 6.2/6.3: P2P removes "
    "the server but uplink now scales with the room; interest scoping "
    "bends the downlink curve; forwarding is today's linear baseline)",
    "solutions", user_counts=(2, 5, 10, 15), platform="worlds", seed=0,
)
def _solutions(results) -> str:
    headers = [
        "Architecture", "Users", "Viewer down (Kbps)", "Client up (Kbps)", "Server fwd (Kbps)",
    ]
    rows = []
    for architecture, points in results.items():
        for point in points:
            rows.append(
                [
                    architecture,
                    point.n_users,
                    f"{point.viewer_down_kbps:.0f}",
                    f"{point.viewer_up_kbps:.0f}",
                    f"{point.server_forwarded_kbps:.0f}",
                ]
            )
    return render_table(headers, rows)


@_block(
    "viewport-tradeoff",
    "Ablation — viewport filtering trade-off (Sec. 6.1: the server "
    "viewport is wider than the FoV to absorb prediction error; a "
    "yaw-rate predictor achieves the same with a narrower cone)",
    "viewport-tradeoff",
)
def _viewport_tradeoff(points) -> str:
    rows = [
        [point.label, f"{point.missing_fraction:.1%}", f"{point.savings_fraction:.1%}"]
        for point in points
    ]
    return render_table(["Configuration", "Missing content", "Data savings"], rows)


@_block("table1", "Table 1 — Feature comparison of five social VR platforms", "features")
def _table1(rows) -> str:
    from ..platforms.registry import FEATURE_COLUMNS

    headers = ["Platform", "Company"] + list(FEATURE_COLUMNS)
    return render_table(headers, [[row[h] for h in headers] for row in rows])


@_block(
    "table2",
    "Table 2 — Network protocols and infrastructure "
    "(east-coast vantage; paper: AltspaceVR/Hubs data in western US >70 ms, "
    "Rec Room/VRChat data on Cloudflare anycast <4 ms)",
    "infrastructure",
)
def _table2(reports) -> str:
    headers = [
        "Platform", "Channel", "Protocol", "Server Loc.", "Owner", "Anycast?", "RTT (ms)",
        "Method",
    ]
    rows = []
    for name, report in reports.items():
        for item in [report.control] + report.data:
            rows.append(
                [
                    name,
                    item.channel,
                    item.protocol,
                    item.location,
                    item.owner,
                    "yes" if item.anycast else "no",
                    f"{item.east_rtt.mean:.2f}/{item.east_rtt.std:.1f}",
                    item.rtt_method,
                ]
            )
    return render_table(headers, rows)


@_block(
    "regional",
    "Sec. 4.2 — Regional follow-up (paper: AltspaceVR data ~150 ms and "
    "Hubs WebRTC ~140 ms from Europe; Rec Room/VRChat/Worlds near "
    "everywhere they operate; Worlds unavailable in Europe)",
    "regional",
)
def _regional(probes) -> str:
    def fmt(value):
        return f"{value:.1f}" if value is not None else "-"

    headers = [
        "Vantage", "Platform", "Control RTT", "Control loc.", "Data RTT", "Data loc.",
        "Voice RTT",
    ]
    rows = [
        [
            probe.vantage,
            probe.platform,
            fmt(probe.control_rtt_ms),
            probe.control_server_region,
            fmt(probe.data_rtt_ms),
            probe.data_server_region,
            fmt(probe.voice_rtt_ms),
        ]
        for probe in probes
    ]
    return render_table(headers, rows)


#: Table 3 paper values (up, down, avatar Kbps).
TABLE3_PAPER = {
    "vrchat": (31.4, 31.3, 24.7),
    "altspacevr": (41.3, 40.4, 11.1),
    "recroom": (41.7, 41.5, 35.2),
    "hubs": (83.3, 83.1, 77.4),
    "worlds": (752.0, 413.0, 332.0),
}


@_block(
    "table3",
    "Table 3 — Two-user data-channel throughput (measured vs paper)",
    "throughput", seed=0,
)
def _table3(rows_by_name) -> str:
    headers = [
        "Platform", "Up (Kbps)", "paper", "Down (Kbps)", "paper", "Resolution",
        "Avatar (Kbps)", "paper",
    ]
    rows = []
    for name, row in rows_by_name.items():
        paper_up, paper_down, paper_avatar = TABLE3_PAPER[name]
        rows.append(
            [
                name,
                str(row.up_kbps),
                paper_up,
                str(row.down_kbps),
                paper_down,
                row.resolution,
                str(row.avatar_kbps),
                paper_avatar,
            ]
        )
    return render_table(headers, rows)


#: Table 4 paper values (E2E, sender, receiver, server ms), in the
#: paper's row order.
TABLE4_PAPER = {
    "recroom": (101.7, 25.9, 39.9, 29.9),
    "vrchat": (104.3, 27.3, 37.4, 33.5),
    "worlds": (128.5, 26.2, 49.1, 40.2),
    "altspacevr": (209.2, 24.5, 36.1, 68.6),
    "hubs": (239.1, 42.4, 60.1, 52.2),
    "hubs-private": (130.7, 40.3, 61.5, 16.2),
}


@_block(
    "table4",
    "Table 4 — End-to-end latency breakdown (measured vs paper)",
    "latency", n_actions=20, seed=0,
)
def _table4(results) -> str:
    headers = [
        "Platform", "E2E (ms)", "paper", "Sender", "paper", "Receiver", "paper", "Server",
        "paper",
    ]
    rows = []
    for name in [name for name in TABLE4_PAPER if name in results]:
        measured = results[name]
        paper_e2e, paper_snd, paper_rcv, paper_srv = TABLE4_PAPER[name]
        rows.append(
            [
                name,
                str(measured.e2e),
                paper_e2e,
                str(measured.sender),
                paper_snd,
                str(measured.receiver),
                paper_rcv,
                str(measured.server),
                paper_srv,
            ]
        )
    return render_table(headers, rows)


@_block("viewport", "Sec. 6.1 — AltspaceVR viewport-width detection", "viewport-width")
def _viewport(detection) -> str:
    return "\n".join(
        [
            render_series("downlink per snap position (Kbps)", detection.step_throughput_kbps),
            f"onset at snap step {detection.onset_step} "
            f"(each step = {detection.step_deg} deg)",
            f"estimated server viewport width: {detection.estimated_width_deg:.1f} deg "
            "(paper: ~150 deg)",
            f"maximum data savings: {detection.max_savings_fraction:.1%} "
            "(paper: up to ~58%)",
        ]
    )
