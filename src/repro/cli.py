"""Command-line interface: regenerate any paper artifact from a shell.

Usage::

    python -m repro platforms
    python -m repro quickstart --platform worlds
    python -m repro table3
    python -m repro fig13
    python -m repro export-pcap --platform vrchat --output capture.pcap
    python -m repro campaign --experiments throughput forwarding \\
        --seeds 0:20 --workers 4 --telemetry campaign.jsonl
    python -m repro chaos --scenarios link-flap server-crash \\
        --platforms vrchat worlds --seeds 3
    python -m repro trace throughput --seed 3 --output trace.jsonl
    python -m repro table2 --metrics-out table2-metrics.json
    python -m repro serve --spool .repro-serve --port 8791 --workers 2
    python -m repro submit --url http://localhost:8791 \\
        --experiments throughput --seeds 2 --wait
    python -m repro status --url http://localhost:8791
    python -m repro artifacts --url http://localhost:8791 JOB --fetch out/

Each block of the paper record (:mod:`repro.measure.record`: Tables
1-4, Figs. 2-13, the Sec. 4.2, 6.1, 6.3 and 8.2 studies and two
ablations) is a subcommand, named as ``python -m repro --help`` lists
it, that prints the block exactly as ``benchmarks/RESULTS.txt`` holds
it, then checks the shape the paper claims for it: a broken claim is
named on stderr and the exit status is 1.  Other parameter values run
through :mod:`repro.core.api` or ``campaign --param``.

Any subcommand accepts ``--metrics-out PATH`` to additionally write the
run's observability dump (metric registry + packet/span traces) as
JSON; for ``campaign`` the path is a directory of per-task dumps.

Any subcommand also accepts ``--profile``: the run executes under full
observability and, after the normal output, prints the ten kernel
callbacks that consumed the most dispatch wall time (from the
``sim.callback_wall_s`` histograms) — the first place to look when a
run is slower than expected.
"""

from __future__ import annotations

import argparse
import sys
import typing

from .measure.record import BLOCKS, ClaimFailed, format_block
from .measure.report import render_table


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 0
    metrics_out = getattr(args, "metrics_out", None)
    profile = getattr(args, "profile", False)
    if (metrics_out or profile) and not getattr(args, "owns_metrics_out", False):
        # Generic path: run the subcommand under an obs collector and
        # dump everything its simulators recorded.  Subcommands that
        # manage collection themselves (campaign, trace) opt out via
        # ``owns_metrics_out``.
        from .obs import collect

        with collect() as collector:
            status = args.handler(args)
        if metrics_out:
            from .obs.export import write_json

            write_json(collector.merged_dump(), metrics_out)
            print(f"[metrics written to {metrics_out}]")
        if profile:
            _print_callback_profile(
                _callback_entries_from_dump(collector.merged_dump())
            )
        return status
    return args.handler(args)


def _callback_entries_from_dump(dump: dict) -> typing.List[dict]:
    """``sim.callback_wall_s`` histogram rows from an observability dump."""
    histograms = dump.get("metrics", {}).get("histograms", [])
    return [h for h in histograms if h["name"] == "sim.callback_wall_s"]


def _print_callback_profile(entries: typing.Iterable[dict]) -> None:
    """Top-10 kernel callbacks by aggregate dispatch wall time."""
    totals: typing.Dict[str, dict] = {}
    for entry in entries:
        label = entry.get("labels", {}).get("callback", "?")
        row = totals.setdefault(
            label, {"count": 0, "wall_s": 0.0, "max_s": 0.0}
        )
        row["count"] += entry["count"]
        row["wall_s"] += entry["sum"]
        row["max_s"] = max(row["max_s"], entry["max"])
    if not totals:
        print("\n[no kernel callbacks recorded — nothing to profile]")
        return
    ranked = sorted(totals.items(), key=lambda item: -item[1]["wall_s"])[:10]
    rows = []
    for label, row in ranked:
        mean_us = row["wall_s"] / row["count"] * 1e6 if row["count"] else 0.0
        rows.append(
            [
                label,
                row["count"],
                f"{row['wall_s']:.4f}",
                f"{mean_us:.1f}",
                f"{row['max_s'] * 1e3:.3f}",
            ]
        )
    print()
    print(
        render_table(
            ["Callback", "Calls", "Wall (s)", "Mean (us)", "Max (ms)"],
            rows,
            title="kernel callback profile (top 10 by wall time)",
        )
    )


def _build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the IMC'22 social-VR measurement study",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the observability dump (metrics + traces) as JSON "
        "(for 'campaign': a directory of per-task dumps)",
    )
    common.add_argument(
        "--profile",
        action="store_true",
        help="after the run, print the top-10 kernel callbacks by "
        "dispatch wall time",
    )
    live = argparse.ArgumentParser(add_help=False)
    live.add_argument(
        "--live-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve live observability on 127.0.0.1:PORT while the run "
        "executes: GET /metrics (Prometheus), /progress (JSON), "
        "/events (SSE); 0 picks a free port (docs/OBSERVABILITY.md)",
    )
    runner = argparse.ArgumentParser(add_help=False)
    runner.add_argument(
        "--seeds",
        default="1",
        help="seed range: a count N (seeds 0..N-1) or an A:B half-open range",
    )
    runner.add_argument("--workers", type=int, default=None)
    runner.add_argument(
        "--serial", action="store_true", help="run in-process, in plan order"
    )
    runner.add_argument("--timeout", type=float, default=None, metavar="SECONDS")
    runner.add_argument("--retries", type=int, default=2)
    runner.add_argument("--cache-dir", default=".repro-cache")
    runner.add_argument(
        "--no-cache", action="store_true", help="always execute; never read or write the cache"
    )
    runner.add_argument(
        "--telemetry", default=None, metavar="PATH", help="append JSONL events here"
    )

    def add_parser(name: str, *parents, **kwargs):
        return sub.add_parser(name, parents=[common, *parents], **kwargs)

    sub = parser.add_subparsers(dest="command")

    platforms = add_parser("platforms", help="list the modelled platforms")
    platforms.set_defaults(handler=_cmd_platforms)

    quickstart = add_parser("quickstart", help="run a two-user session")
    quickstart.add_argument("--platform", default="vrchat")
    quickstart.add_argument("--duration", type=float, default=20.0)
    quickstart.set_defaults(handler=_cmd_quickstart)

    for block in BLOCKS.values():
        add_parser(block.name, help=block.title.partition(" (")[0]).set_defaults(
            handler=_cmd_block, block=block
        )

    experiments = add_parser(
        "experiments", help="list every registered experiment"
    )
    experiments.set_defaults(handler=_cmd_experiments)

    campaign = add_parser(
        "campaign",
        live,
        runner,
        help="run an experiment matrix in parallel with caching + telemetry",
    )
    campaign.add_argument(
        "--experiments",
        nargs="+",
        required=True,
        help="registry names, or 'all' for every registered experiment",
    )
    campaign.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE[,VALUE...]",
        help="grid axis: a JSON list of grid points or comma-separated "
        "scalars; nest lists for list-valued params, e.g. "
        "'platforms=[[\"vrchat\"],[\"worlds\"]]' (repeat the flag for "
        "more axes; an axis only applies to experiments accepting it)",
    )
    campaign.set_defaults(handler=_cmd_campaign, owns_metrics_out=True)

    chaos = add_parser(
        "chaos",
        live,
        runner,
        help="run fault-injection resiliency campaigns (docs/CHAOS.md)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=_chaos_catalog_text(),
    )
    chaos.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        metavar="NAME",
        help="scenario names from the catalog below (default: all)",
    )
    chaos.add_argument(
        "--platforms",
        nargs="+",
        default=None,
        metavar="NAME",
        help="platforms to subject to each fault (default: all five)",
    )
    chaos.add_argument(
        "--intensities",
        nargs="+",
        default=None,
        metavar="NAME",
        help="intensity levels; scenario/intensity pairs the catalog "
        "does not define are skipped (default: every level)",
    )
    chaos.set_defaults(handler=_cmd_chaos, owns_metrics_out=True)

    qoe = add_parser(
        "qoe",
        live,
        runner,
        help="score per-user experience (MOS windows + SLOs, docs/QOE.md)",
    )
    qoe.add_argument(
        "--platforms",
        nargs="+",
        default=None,
        metavar="NAME",
        help="platforms to score (default: all five)",
    )
    qoe.add_argument("--users", type=int, default=2, help="users per testbed")
    qoe.add_argument(
        "--duration", type=float, default=30.0, help="scored in-event seconds"
    )
    qoe.add_argument(
        "--slo",
        action="append",
        default=[],
        metavar="SPEC",
        help="SLO to evaluate over pooled window scores per platform, "
        "e.g. 'p05>=3.0/60s' or 'p05>=3.0/60s@0.05' (repeatable)",
    )
    qoe.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="arm this chaos scenario during the run (see 'chaos --help')",
    )
    qoe.add_argument(
        "--intensity",
        default="mild",
        metavar="NAME",
        help="intensity for --scenario (default: mild)",
    )
    qoe.set_defaults(handler=_cmd_qoe, owns_metrics_out=True)

    trace = add_parser(
        "trace",
        help="run one experiment under full observability and profile it",
    )
    trace.add_argument("experiment", help="a registry name (see 'experiments')")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--limit",
        type=int,
        default=10,
        metavar="N",
        help="trace/profile rows to print per section (0 = all)",
    )
    trace.add_argument(
        "--max-events",
        type=int,
        default=None,
        metavar="N",
        help="per-simulation trace buffer bound (default 200000)",
    )
    trace.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="also write the full dump as JSONL here",
    )
    trace.set_defaults(handler=_cmd_trace, owns_metrics_out=True)

    report = add_parser(
        "report",
        help="print the findings report card, or render an HTML campaign "
        "report from telemetry + metrics artifacts (--html)",
    )
    report.add_argument("--output", default=None, help="also write markdown here")
    report.add_argument(
        "--html",
        default=None,
        metavar="PATH",
        help="render a static HTML campaign report here (joins "
        "--telemetry and --metrics-dir on campaign_id)",
    )
    report.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="campaign telemetry JSONL to include in the HTML report",
    )
    report.add_argument(
        "--metrics-dir",
        default=None,
        metavar="DIR",
        help="campaign metrics directory (per-task dumps + index + "
        "aggregated registry) to include in the HTML report",
    )
    report.add_argument(
        "--title", default="Campaign report", help="HTML report title"
    )
    report.set_defaults(handler=_cmd_report)

    event = add_parser(
        "public-event", help="attend a churning public event (Sec. 6.2)"
    )
    event.add_argument("--platform", default="vrchat")
    event.add_argument("--users", type=int, default=10)
    event.add_argument("--duration", type=float, default=180.0)
    event.set_defaults(handler=_cmd_public_event)

    scale = add_parser(
        "scale",
        live,
        help="fluid fan-out: project the testbed calibration to "
        "metaverse-scale populations",
    )
    scale.add_argument("--platform", default="vrchat")
    scale.add_argument("--rooms", type=int, default=1000)
    scale.add_argument("--users-per-room", type=int, default=20)
    scale.add_argument("--duration", type=float, default=300.0)
    scale.add_argument("--bin", type=float, default=5.0)
    scale.add_argument(
        "--architecture",
        choices=("forwarding", "p2p", "interest", "remote-rendering"),
        default="forwarding",
        help="architecture to fan out (the capacity table always compares all four)",
    )
    scale.add_argument("--seed", type=int, default=0)
    scale.add_argument("--workers", type=int, default=None)
    scale.add_argument(
        "--serial", action="store_true", help="run shards in-process"
    )
    scale.add_argument(
        "--no-churn", action="store_true", help="constant room occupancy"
    )
    scale.set_defaults(handler=_cmd_scale)

    export = add_parser(
        "export-pcap", help="run a session and export U1's capture"
    )
    export.add_argument("--platform", default="vrchat")
    export.add_argument("--duration", type=float, default=20.0)
    export.add_argument("--output", required=True)
    export.set_defaults(handler=_cmd_export_pcap)

    serve = add_parser(
        "serve",
        help="run the simulation-as-a-service daemon (docs/SERVE.md)",
    )
    serve.add_argument(
        "--spool",
        default=".repro-serve",
        metavar="DIR",
        help="state directory: job queue, artifact store, result CAS",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8791)
    serve.add_argument(
        "--workers", type=int, default=1, help="in-process worker threads"
    )
    serve.add_argument(
        "--token",
        action="append",
        default=[],
        metavar="TENANT=SECRET",
        help="tenant API token (repeatable); omit for a single open "
        "'public' tenant",
    )
    serve.add_argument(
        "--lease-s",
        type=float,
        default=30.0,
        help="job lease seconds; a dead worker's job is re-leased after this",
    )
    serve.add_argument(
        "--cache-max-mb",
        type=float,
        default=None,
        metavar="MB",
        help="LRU-evict the shared result CAS down to this footprint",
    )
    serve.set_defaults(handler=_cmd_serve)

    worker = add_parser(
        "worker",
        help="join a serve spool's worker fleet from this process",
    )
    worker.add_argument("--spool", default=".repro-serve", metavar="DIR")
    worker.add_argument(
        "--max-jobs", type=int, default=None, help="exit after N jobs"
    )
    worker.add_argument("--lease-s", type=float, default=30.0)
    worker.set_defaults(handler=_cmd_worker)

    client_common = argparse.ArgumentParser(add_help=False)
    client_common.add_argument(
        "--url",
        default="http://127.0.0.1:8791",
        help="serve daemon endpoint (default %(default)s)",
    )
    client_common.add_argument(
        "--token", default=None, help="tenant API token, if the daemon requires one"
    )
    client_common.add_argument(
        "--json", action="store_true", help="print raw JSON instead of tables"
    )

    submit = sub.add_parser(
        "submit",
        parents=[client_common],
        help="submit a campaign spec to a serve daemon",
    )
    submit.add_argument(
        "--experiments", nargs="+", default=None, help="registry names"
    )
    submit.add_argument(
        "--seeds", default="1", help="seed count N or A:B half-open range"
    )
    submit.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE[,VALUE...]",
        help="grid axis (same vocabulary as 'campaign')",
    )
    submit.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="submit this JSON spec file instead of building one from flags",
    )
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--timeout", type=float, default=None, metavar="SECONDS")
    submit.add_argument("--retries", type=int, default=2)
    submit.add_argument(
        "--serial", action="store_true", help="ask the worker to run in-process"
    )
    submit.add_argument(
        "--collect-obs",
        action="store_true",
        help="keep per-task observability dumps as job artifacts",
    )
    submit.add_argument(
        "--wait", action="store_true", help="block until the job is terminal"
    )
    submit.set_defaults(handler=_cmd_submit)

    status = sub.add_parser(
        "status",
        parents=[client_common],
        help="list a serve daemon's jobs, or inspect one",
    )
    status.add_argument("job", nargs="?", default=None, help="a job id")
    status.add_argument("--state", default=None, help="filter the listing")
    status.set_defaults(handler=_cmd_status)

    artifacts = sub.add_parser(
        "artifacts",
        parents=[client_common],
        help="list or download a job's artifacts",
    )
    artifacts.add_argument("job", help="a job id")
    artifacts.add_argument(
        "--fetch",
        default=None,
        metavar="DIR",
        help="download every artifact into DIR",
    )
    artifacts.set_defaults(handler=_cmd_artifacts)

    return parser


# ----------------------------------------------------------------------
# Command handlers
# ----------------------------------------------------------------------
def _cmd_platforms(args) -> int:
    from .platforms.profiles import PLATFORM_NAMES
    from .platforms.registry import platform_summary

    rows = []
    for name in PLATFORM_NAMES:
        summary = platform_summary(name)
        rows.append(
            [
                summary["name"],
                summary["company"],
                summary["release_year"],
                summary["data_transport"],
                "yes" if summary["viewport_adaptive"] else "no",
                summary["resolution"],
            ]
        )
    print(
        render_table(
            ["Platform", "Company", "Year", "Data", "Viewport-adaptive", "Resolution"],
            rows,
        )
    )
    return 0


def _platform(name: str) -> str:
    """``--platform`` if it names a modelled platform; else exit 2."""
    from .platforms.profiles import get_profile

    try:
        get_profile(name)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        raise SystemExit(2) from None
    return name


def _cmd_quickstart(args) -> int:
    from .core.api import run_two_user_session

    try:
        result = run_two_user_session(_platform(args.platform), duration_s=args.duration)
    except ValueError as exc:  # a non-positive --duration, before any testbed
        print(exc.args[0], file=sys.stderr)
        return 2
    print(
        f"{result.platform}: up {result.uplink_kbps:.1f} Kbps, "
        f"down {result.downlink_kbps:.1f} Kbps, {result.fps:.0f} FPS, "
        f"CPU {result.cpu_pct:.0f}%"
    )
    return 0


def _cmd_block(args) -> int:
    block = args.block
    result = block.run()
    print(format_block(block.title, block.render(result)))
    try:
        block.check(result)
    except ClaimFailed as failed:
        print(f"{block.name}: claim failed: {failed}", file=sys.stderr)
        return 1
    return 0


def _cmd_experiments(args) -> int:
    from .measure.experiment import list_experiments

    rows = [
        [spec.name, spec.artifact, spec.description]
        for spec in list_experiments()
    ]
    print(render_table(["Name", "Artifact", "Description"], rows))
    return 0


def _seeds(text: str) -> list:
    """``--seeds`` through the runner's seed vocabulary; exit 2 if bad."""
    from .runner.plan import parse_seeds

    try:
        return parse_seeds(text)
    except ValueError as exc:
        print(f"--seeds: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _parse_grid(params: typing.Sequence[str]) -> dict:
    """``NAME=V1,V2`` flags into a grid mapping; values JSON when possible."""
    import json

    def parse_value(raw: str):
        try:
            return json.loads(raw)
        except ValueError:
            return raw

    grid = {}
    for item in params:
        name, sep, raw = item.partition("=")
        if not sep or not name:
            print(
                f"--param expects NAME=VALUE[,VALUE...], got {item!r}",
                file=sys.stderr,
            )
            raise SystemExit(2)
        parsed = parse_value(raw)
        if isinstance(parsed, list):
            grid[name] = parsed
        elif "," in raw:
            grid[name] = [parse_value(part) for part in raw.split(",")]
        else:
            grid[name] = [parsed]
    return grid


def _maybe_live(args):
    """Context manager: a live obs server when ``--live-port`` was given.

    Prints the endpoint before the run starts, so a watcher can attach
    while tasks execute.  The live plane is read-only — results are
    byte-identical with or without it.
    """
    import contextlib

    port = getattr(args, "live_port", None)
    if port is None:
        return contextlib.nullcontext(None)

    @contextlib.contextmanager
    def _serving():
        from .obs.live import LivePortBusyError, live_server

        try:
            context = live_server(port=port)
            with context as server:
                if port == 0:
                    print(f"[--live-port 0 picked free port {server.port}]")
                print(
                    f"[live observability at {server.url} — "
                    f"/metrics /progress /events]"
                )
                yield server
        except LivePortBusyError as exc:
            # Fail before any campaign work starts: a busy port should
            # be a one-line fix, not a mid-run stack trace.
            print(f"error: {exc}", file=sys.stderr)
            raise SystemExit(2) from None

    return _serving()


def _runner_options(args) -> dict:
    """``run_campaign`` keyword arguments from the shared runner flags."""
    return dict(
        parallel=not args.serial,
        max_workers=args.workers,
        timeout_s=args.timeout,
        max_retries=args.retries,
        cache_dir=None if args.no_cache else args.cache_dir,
        telemetry_path=args.telemetry,
        metrics_dir=args.metrics_out,
        collect_obs=args.profile,
    )


def _finish_campaign(args, campaign) -> int:
    """Failures on stderr, then the artifact notes; the exit status."""
    for failure in campaign.failures:
        print(f"FAILED {failure.spec.task_id}: {failure.error}", file=sys.stderr)
    if args.telemetry:
        print(f"\n[telemetry appended to {args.telemetry}]")
    if args.metrics_out:
        print(f"[per-task metrics written to {args.metrics_out}/]")
    return 0 if campaign.ok else 1


def _cmd_campaign(args) -> int:
    from .measure.experiment import registry
    from .runner import CampaignPlan, run_campaign

    names = list(args.experiments)
    if names == ["all"]:
        names = list(registry())
    try:
        plan = CampaignPlan.from_matrix(
            names, grid=_parse_grid(args.param), seeds=_seeds(args.seeds)
        )
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    with _maybe_live(args):
        print(f"Running {plan.describe()}...")
        campaign = run_campaign(plan, **_runner_options(args))
    rows = []
    for name in plan.experiments:
        per = [r for r in campaign if r.spec.experiment == name]
        executed = [r for r in per if not r.from_cache]
        mean_wall = (
            sum(r.wall_time_s for r in executed) / len(executed) if executed else 0.0
        )
        rows.append(
            [
                name,
                len(per),
                sum(1 for r in per if r.ok),
                sum(1 for r in per if not r.ok),
                sum(1 for r in per if r.from_cache),
                f"{mean_wall:.2f}",
            ]
        )
    print(
        render_table(
            ["Experiment", "Tasks", "OK", "Failed", "Cached", "Mean task (s)"],
            rows,
        )
    )
    print()
    print(campaign.summary.render())
    if args.profile:
        entries: typing.List[dict] = []
        for result in campaign:
            if result.metrics is not None:
                entries.extend(_callback_entries_from_dump(result.metrics))
        _print_callback_profile(entries)
    return _finish_campaign(args, campaign)


def _chaos_catalog_text() -> str:
    """The scenario catalog, rendered straight from the registry."""
    from .chaos.scenarios import list_scenarios

    lines = ["fault scenarios (registry-driven; extend via repro.chaos):"]
    for spec in list_scenarios():
        intensities = "/".join(spec.intensity_names)
        lines.append(f"  {spec.name:<17} [{intensities}]  {spec.summary}")
    return "\n".join(lines)


def _cmd_chaos(args) -> int:
    from .chaos import run_chaos_campaign

    seeds = _seeds(args.seeds)
    print(_chaos_catalog_text())
    print()
    try:
        with _maybe_live(args):
            outcome = run_chaos_campaign(
                scenarios=args.scenarios,
                platforms=args.platforms,
                intensities=args.intensities,
                seeds=seeds,
                **_runner_options(args),
            )
    except (KeyError, ValueError) as exc:  # unknown names, empty matrix
        print(exc.args[0], file=sys.stderr)
        return 2
    rows = []
    for verdict in outcome.verdicts:
        rows.append(
            [
                verdict.scenario,
                verdict.platform,
                verdict.intensity,
                verdict.seed,
                f"{verdict.baseline_down_kbps:.0f}",
                (
                    f"{verdict.recovery_time_s:.1f}"
                    if verdict.recovered
                    else "never"
                ),
                verdict.packets_lost,
                verdict.users_dropped,
                f"{verdict.session_survival_rate:.3f}",
                (
                    f"{verdict.qoe_worst_user_score:.2f}"
                    if verdict.qoe_worst_user_score is not None
                    else "-"
                ),
                verdict.qoe_users_below_threshold,
                f"{verdict.qoe_slo_breach_s:.0f}",
                "pass" if verdict.passed else "FAIL",
            ]
        )
    print(
        render_table(
            [
                "Scenario",
                "Platform",
                "Intensity",
                "Seed",
                "Base (Kbps)",
                "Recovery (s)",
                "Pkts lost",
                "Dropped",
                "Survival",
                "QoE worst",
                "Degraded",
                "Breach (s)",
                "Verdict",
            ],
            rows,
        )
    )
    print()
    passed = sum(1 for f in outcome.findings if f.passed)
    print(f"findings: {passed}/{len(outcome.findings)} cells passed")
    print(outcome.campaign.summary.render())
    return _finish_campaign(args, outcome.campaign)


def _cmd_qoe(args) -> int:
    from .qoe import SloSpec, evaluate_slo, mos_label, run_qoe_campaign

    seeds = _seeds(args.seeds)
    try:
        slo_specs = [SloSpec.parse(text) for text in args.slo]
    except ValueError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    try:
        with _maybe_live(args):
            outcome = run_qoe_campaign(
                platforms=args.platforms,
                seeds=seeds,
                n_users=args.users,
                duration_s=args.duration,
                scenario=args.scenario,
                intensity=args.intensity,
                **_runner_options(args),
            )
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.scenario:
        print(
            f"QoE under fault: {args.scenario} @ {args.intensity} "
            f"(scored windows span the fault and the recovery)"
        )
        print()
    rows = []
    for result in outcome.results:
        for user in result.users:
            rows.append(
                [
                    result.platform,
                    result.seed,
                    user.user,
                    user.n_windows,
                    f"{user.mean_score:.2f}",
                    f"{user.worst_score:.2f}",
                    f"{user.seconds_below:.0f}",
                    mos_label(user.mean_score),
                ]
            )
    print(
        render_table(
            [
                "Platform",
                "Seed",
                "User",
                "Windows",
                "Mean MOS",
                "Worst",
                "Below (s)",
                "Rating",
            ],
            rows,
        )
    )
    if slo_specs:
        print()
        slo_rows = []
        compliant_cells = 0
        for platform in outcome.platforms():
            windows = outcome.pooled_windows(platform)
            for spec in slo_specs:
                report = evaluate_slo(spec, windows)
                compliant_cells += report.compliant
                slo_rows.append(
                    [
                        platform,
                        spec.name,
                        len(report.breaches),
                        f"{report.total_breach_s:.0f}",
                        f"{report.worst_burn_rate:.2f}",
                        "pass" if report.compliant else "FAIL",
                    ]
                )
        print(
            render_table(
                [
                    "Platform",
                    "SLO",
                    "Breaches",
                    "Breach (s)",
                    "Worst burn",
                    "Verdict",
                ],
                slo_rows,
            )
        )
        print()
        print(f"findings: {compliant_cells}/{len(slo_rows)} SLO cells compliant")
    print()
    print(outcome.campaign.summary.render())
    return _finish_campaign(args, outcome.campaign)


def _cmd_trace(args) -> int:
    from .measure.experiment import run_experiment
    from .obs import collect
    from .obs.export import render, write_json, write_jsonl
    from .runner.plan import experiment_accepts_seed

    try:
        kwargs = {"seed": args.seed} if experiment_accepts_seed(args.experiment) else {}
        with collect(max_trace_events=args.max_events) as collector:
            run_experiment(args.experiment, **kwargs)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    dump = collector.merged_dump()
    n_sims = len(collector.observabilities)
    trace = dump["trace"]
    limit = args.limit if args.limit > 0 else None

    print(f"experiment: {args.experiment} ({n_sims} simulation(s))")
    for index, obs in enumerate(collector.observabilities):
        print()
        if n_sims > 1:
            print(f"--- simulation {index} ---")
        print(render(obs.registry, max_rows=limit or 0))

    spans = [e for e in trace["events"] if e["kind"] == "span"]
    hops = [e for e in trace["events"] if e["kind"] == "hop"]
    print()
    print(
        f"trace: {len(trace['events'])} events kept "
        f"({trace['dropped']} dropped), {len(spans)} spans, {len(hops)} hops"
    )
    if hops:
        first_packet = hops[0].get("packet")
        journey = [h for h in hops if h.get("packet") == first_packet]
        print(f"\npacket {first_packet} ({journey[0].get('flow', '?')}):")
        for hop in journey[:limit] if limit else journey:
            print(
                f"  t={hop['t']:.6f}  {hop['hop']:<8} at {hop['where']}"
                f"  size={hop.get('size', '?')}"
            )

    # Merge span profiles across collected simulations.
    totals: typing.Dict[str, dict] = {}
    for obs in collector.observabilities:
        for row in obs.tracer.span_profile():
            merged_row = totals.setdefault(
                row["name"],
                {"name": row["name"], "count": 0, "wall_s": 0.0, "sim_s": 0.0},
            )
            merged_row["count"] += row["count"]
            merged_row["wall_s"] += row["wall_s"]
            merged_row["sim_s"] += row["sim_s"]
    profile_rows = sorted(totals.values(), key=lambda row: -row["wall_s"])
    if profile_rows:
        shown = profile_rows[:limit] if limit else profile_rows
        print()
        print(
            render_table(
                ["Span", "Count", "Wall (s)", "Sim (s)"],
                [
                    [r["name"], r["count"], f"{r['wall_s']:.4f}", f"{r['sim_s']:.2f}"]
                    for r in shown
                ],
                title="span profile (heaviest first)",
            )
        )

    if args.profile:
        _print_callback_profile(_callback_entries_from_dump(dump))

    if args.output:
        lines = write_jsonl(dump, args.output)
        print(f"\n[{lines} JSONL events written to {args.output}]")
    if args.metrics_out:
        write_json(dump, args.metrics_out)
        print(f"[metrics written to {args.metrics_out}]")
    return 0


def _cmd_report(args) -> int:
    if args.html:
        from .obs.report import write_campaign_report

        if not args.telemetry and not args.metrics_dir:
            print(
                "--html needs --telemetry and/or --metrics-dir to report on",
                file=sys.stderr,
            )
            return 2
        path = write_campaign_report(
            args.html,
            telemetry_path=args.telemetry,
            metrics_dir=args.metrics_dir,
            title=args.title,
        )
        print(f"[campaign report written to {path}]")
        return 0

    from .core.report_card import build_report_card

    card = build_report_card()
    text = card.to_markdown()
    print(text)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"\n[written to {args.output}]")
    return 0 if card.all_passed else 1


def _cmd_public_event(args) -> int:
    from .measure.workload import run_public_event

    try:
        result = run_public_event(
            _platform(args.platform), target_users=args.users, duration_s=args.duration
        )
    except ValueError as exc:  # no churn in the window, or a bad --users/--duration
        print(exc.args[0], file=sys.stderr)
        return 2
    rows = [
        [f"{s.time_s:.0f}", s.occupants, f"{s.down_kbps:.0f}"]
        for s in result.samples[:: max(1, len(result.samples) // 12)]
    ]
    print(render_table(["t (s)", "Occupants", "Downlink (Kbps)"], rows))
    print(
        f"\ndownlink ~= {result.per_user_kbps:.1f} Kbps/user "
        f"(R^2={result.fit.r2:.3f}) — per-avatar cost recovered from churn"
    )
    return 0


def _cmd_scale(args) -> int:
    from .scale import ScaleScenario, capacity_table, plan_capacity, run_sharded

    try:
        scenario = ScaleScenario(
            platform=args.platform,
            architecture=args.architecture,
            users_per_room=args.users_per_room,
            duration_s=args.duration,
            bin_s=args.bin,
            churn=not args.no_churn,
        )
        with _maybe_live(args):
            result = run_sharded(
                scenario,
                args.rooms,
                seed=args.seed,
                parallel=False if args.serial else None,
                max_workers=args.workers,
            )
    except (KeyError, ValueError) as exc:  # bad scenario or room count
        print(exc.args[0], file=sys.stderr)
        return 2
    total = result.total_users
    print(
        f"{scenario.platform} / {scenario.architecture}: "
        f"{result.n_rooms:,} rooms x {scenario.users_per_room} users "
        f"({total:,} users) over {scenario.duration_s:.0f} s"
    )
    print(
        f"  mean concurrent users: {result.mean_concurrent_users:,.0f}  "
        f"(churn {'on' if scenario.churn else 'off'}, "
        f"peak room occupancy {result.peak_occupancy})"
    )
    print(
        f"  aggregate server egress: mean {result.mean_egress_gbps:.2f} Gbps, "
        f"peak {result.peak_egress_gbps:.2f} Gbps "
        f"(peak single room {result.peak_room_egress_bps / 1e6:.1f} Mbps)"
    )
    print(
        f"  cohort QoE: mean {result.mean_mos:.2f} MOS, "
        f"worst bin {result.worst_bin_mos:.2f}, "
        f"degraded {result.qoe_degraded_user_hours:,.1f} user-hours"
    )
    print(
        f"  simulated in {result.wall_time_s:.2f} s wall "
        f"({result.shards} shards, {result.shard_wall_time_s:.2f} s task time)"
    )
    print()
    print(f"Capacity plan for {total:,} concurrent users:")
    plans = plan_capacity(
        args.platform, total, users_per_room=args.users_per_room
    )
    print(capacity_table(plans))
    return 0


def _cmd_export_pcap(args) -> int:
    from .capture.pcap import export_sniffer
    from .measure.session import Testbed, download_drain_s

    testbed = Testbed(_platform(args.platform), n_users=2)
    testbed.start_all(join_at=2.0)
    end = 2.0 + 5.0 + download_drain_s(testbed.profile) + args.duration
    testbed.run(until=end)
    count = export_sniffer(testbed.u1.sniffer, args.output)
    print(f"wrote {count} packets to {args.output}")
    return 0


# ----------------------------------------------------------------------
# Serve control plane (docs/SERVE.md)
# ----------------------------------------------------------------------
def _parse_tokens(items: typing.Sequence[str]) -> dict:
    """``TENANT=SECRET`` flags into the api's ``{secret: tenant}`` map."""
    tokens = {}
    for item in items:
        tenant, sep, secret = item.partition("=")
        if not sep or not tenant or not secret:
            print(f"--token expects TENANT=SECRET, got {item!r}", file=sys.stderr)
            raise SystemExit(2)
        tokens[secret] = tenant
    return tokens


def _cmd_serve(args) -> int:
    import time

    from .serve import ServeDaemon

    max_cache_bytes = (
        int(args.cache_max_mb * 1024 * 1024) if args.cache_max_mb else None
    )
    try:
        daemon = ServeDaemon(
            args.spool,
            host=args.host,
            port=args.port,
            n_workers=args.workers,
            tokens=_parse_tokens(args.token),
            lease_s=args.lease_s,
            max_cache_bytes=max_cache_bytes,
        )
    except OSError as exc:
        print(
            f"error: cannot bind serve API to {args.host}:{args.port} "
            f"({exc.strerror or exc}); pick a different --port",
            file=sys.stderr,
        )
        return 2
    daemon.start()
    tenants = sorted(set(daemon.tokens.values())) or ["public (no auth)"]
    print(f"[repro serve at {daemon.url} — spool {args.spool}]")
    print(
        f"[{args.workers} worker(s), lease {args.lease_s:.0f}s, "
        f"tenants: {', '.join(tenants)}; "
        f"{daemon.recovered_jobs} job(s) recovered from a previous run]"
    )
    print("[endpoints: /healthz /v1/jobs /v1/experiments — Ctrl-C to stop]")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("\n[shutting down]")
    finally:
        daemon.close()
    return 0


def _cmd_worker(args) -> int:
    from .serve.worker import worker_main

    print(f"[repro worker joining spool {args.spool}]")
    done = worker_main(args.spool, max_jobs=args.max_jobs, lease_s=args.lease_s)
    print(f"[worker exit after {done} job(s)]")
    return 0


def _serve_client(args):
    from .serve import ServeClient

    return ServeClient(args.url, token=args.token)


def _print_job(job: dict, as_json: bool) -> None:
    import json

    if as_json:
        print(json.dumps(job, sort_keys=True, indent=1))
        return
    summary = job.get("summary") or {}
    rows = [
        ["job", job["id"]],
        ["state", job["state"]],
        ["tenant", job["tenant"]],
        ["campaign", job["campaign_id"]],
        ["tasks", job["n_tasks"]],
        ["attempts", job["attempts"]],
        ["cache hits", summary.get("cache_hits", "-")],
        ["executed", summary.get("executed", "-")],
        ["artifacts", len(job.get("artifacts", []))],
    ]
    if job.get("error"):
        rows.append(["error", job["error"]])
    print(render_table(["Field", "Value"], rows))


def _cmd_submit(args) -> int:
    import json

    from .serve import ServeApiError

    if args.spec:
        with open(args.spec) as handle:
            spec = json.load(handle)
    else:
        if not args.experiments:
            print("submit needs --experiments or --spec FILE", file=sys.stderr)
            return 2
        spec = {
            "experiments": list(args.experiments),
            "seeds": args.seeds,
            "grid": _parse_grid(args.param),
            "priority": args.priority,
            "max_retries": args.retries,
            "parallel": not args.serial,
            "collect_obs": args.collect_obs,
        }
        if args.timeout is not None:
            spec["timeout_s"] = args.timeout
    client = _serve_client(args)
    try:
        job = client.submit(spec)
        if args.wait:
            job = client.wait(job["id"])
    except ServeApiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for detail in (exc.body or {}).get("errors", []) if isinstance(exc.body, dict) else []:
            print(f"  - {detail}", file=sys.stderr)
        return 2
    _print_job(job, args.json)
    if job["state"] in ("failed", "cancelled"):
        return 1
    return 0


def _cmd_status(args) -> int:
    import json

    from .serve import ServeApiError

    client = _serve_client(args)
    try:
        if args.job:
            _print_job(client.job(args.job), args.json)
            return 0
        jobs = client.jobs(state=args.state)
    except ServeApiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(jobs, sort_keys=True, indent=1))
        return 0
    rows = [
        [
            job["id"],
            job["state"],
            job["tenant"],
            job["n_tasks"],
            (job.get("summary") or {}).get("cache_hits", "-"),
            job["attempts"],
            job["campaign_id"][:8],
        ]
        for job in jobs
    ]
    print(
        render_table(
            ["Job", "State", "Tenant", "Tasks", "Cache hits", "Attempts", "Campaign"],
            rows,
        )
    )
    return 0


def _cmd_artifacts(args) -> int:
    import json
    import os

    from .serve import ServeApiError

    client = _serve_client(args)
    try:
        listing = client.artifacts(args.job)
        if args.fetch:
            for name in listing["artifacts"]:
                blob = client.fetch_artifact(args.job, name)
                path = os.path.join(args.fetch, name)
                os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
                with open(path, "wb") as handle:
                    handle.write(blob)
    except ServeApiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(listing, sort_keys=True, indent=1))
    else:
        for name in listing["artifacts"]:
            print(name)
        print(f"\n{len(listing['artifacts'])} artifact(s), "
              f"{len(listing['cas'])} CAS task payload(s)")
    if args.fetch:
        print(f"[fetched into {args.fetch}/]")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
