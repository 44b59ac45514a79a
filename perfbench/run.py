"""System benchmark: end-to-end and per-layer metrics on three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload fig9_hubs_large --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload serve_chaos --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --all --seed 0          # every workload, both modes

``--trace 0`` times the workload with tracing off, one fresh process per
timed iteration (a fresh daemon per cycle for serve_chaos), for as many
iterations as fit in ``--seconds``, and reports the end-to-end metrics:
fig9_hubs_large's fastest ``run_s`` and ``turnaround_s``, the median of
every other.
``--trace 1`` runs the
workload twice more in fresh processes, untraced and traced, and
reports the per-layer split (see ``layers.py``).  Every run checks the
program's outputs against ``reference.json`` and prints, last, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``NOTES.md`` explains the workloads, the metrics and what moves what.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (benchmark-local module)

WORKLOADS = ("fig9_hubs_large", "serve_chaos", "scale_1m")

#: End-to-end metrics (tracing off): name -> unit.  Lower is better.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "turnaround_s": "s",
    "dedupe_s": "s",
    "peak_rss_mb": "MB",
}

#: Every ``repro`` package is a layer.
LAYERS = (
    "simcore", "net", "server", "platforms", "avatar", "capture", "device",
    "measure", "core", "obs", "chaos", "qoe", "scale", "runner", "serve",
)

#: Per-layer metrics (traced run): name -> unit.
PER_LAYER = {f"{layer}.self_s": "s" for layer in LAYERS}
PER_LAYER.update({
    "simcore.events": "count",
    "net.link_traversals": "count",
    "net.hops_per_packet": "ratio",
    "net.fastpath_share": "ratio",
    "net.drops": "count",
    "net.tcp_retransmits": "count",
    "server.updates_in": "count",
    "server.fanout": "ratio",
    "capture.records_retained": "count",
    "obs.instrument_ops": "count",
    "chaos.faults": "count",
    "qoe.windows": "count",
    "scale.room_ms": "ms",
    "runner.busy_ratio": "ratio",
    "runner.cache_hit_ratio": "ratio",
    "runner.retries": "count",
    "serve.queue_wait_s": "s",
    "serve.service_s": "s",
    "serve.requests": "count",
    "dedupe.obs_s": "s",
    "setup.import_s": "s",
    "setup.build_s": "s",
    "trace.thread_s": "s",
    "tracing_overhead_s": "s",
    "unattributed_s": "s",
})

#: Hard limit for one child process.
CHILD_TIMEOUT_S = 170.0

REFERENCE_PATH = os.path.join(HERE, "reference.json")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (broken checkout, crash)."""


# ----------------------------------------------------------------------
# Bookkeeping: operations attempted/failed and output checks
# ----------------------------------------------------------------------
class Ledger:
    """Counts operations (runs, jobs, tasks, HTTP requests, checks)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks_failed = []

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, what: str, ok: bool) -> None:
        self.ops(1, 0 if ok else 1)
        if not ok:
            self.checks_failed.append(what)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def check_outputs(workload: str, seed: int, outputs: dict, expected, ledger: Ledger) -> None:
    """Compare one iteration's outputs with the recorded (or the run's
    first) values; a mismatch is a failed operation."""
    for key in CHECKED[workload]:
        ledger.check(
            f"{workload} seed {seed}: {key} {outputs.get(key)!r} != {expected.get(key)!r}",
            outputs.get(key) == expected.get(key),
        )


#: Output fields that must repeat exactly for a seed.
CHECKED = {
    "fig9_hubs_large": ("bins_digest", "events"),
    "scale_1m": ("egress_digest", "mean_mos"),
    "serve_chaos": ("results_digest",),
}


def record_reference(workload: str, seed: int, outputs: dict) -> None:
    """Store one seed's checked outputs (``--record``)."""
    if workload == "serve_chaos":
        outputs = {"results_digest": outputs["results_digests"][0]}
    reference = load_reference()
    reference.setdefault(workload, {})[str(seed)] = {
        key: outputs[key] for key in CHECKED[workload]
    }
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


def expected_outputs(workload: str, seed: int, shrink: bool, first: dict) -> dict:
    """The recorded outputs for ``seed`` if any, else the run's first."""
    if not shrink:
        recorded = load_reference().get(workload, {}).get(str(seed))
        if recorded is not None:
            return recorded
    return first


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # The serve daemon prints its URL without flushing; read it live.
    env["PYTHONUNBUFFERED"] = "1"
    return env


def wait_with_rusage(proc: subprocess.Popen, timeout_s: float):
    """Reap ``proc``; returns ``(exit code, peak RSS of its tree in MB)``.

    ``wait4`` reports the largest resident set of the child and of every
    descendant it reaped (pool workers), which is the workload's peak.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, rusage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, rusage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise BenchError(f"pid {proc.pid} ran over {timeout_s:.0f}s and was killed")
        time.sleep(0.01)


def run_child(workload: str, seed: int, work: str, *, trace=False, shrink=False) -> dict:
    """One fresh ``workloads.py`` process; its report plus peak RSS."""
    os.makedirs(work, exist_ok=True)
    out_path = os.path.join(work, "stdout")
    err_path = os.path.join(work, "stderr")
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), workload,
           "--seed", str(seed), "--work", work]
    cmd += ["--trace"] * trace + ["--shrink"] * shrink
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawned_at = time.monotonic()
        proc = subprocess.Popen(
            cmd + ["--spawned-at", repr(spawned_at)],
            cwd=ROOT, env=child_env(), stdout=out, stderr=err,
        )
        code, rss_mb = wait_with_rusage(proc, CHILD_TIMEOUT_S)
    with open(out_path) as handle:
        lines = handle.read().strip().splitlines()
    if code != 0 or not lines:
        with open(err_path) as handle:
            tail = handle.read()[-2000:]
        raise BenchError(f"{workload} child exited {code}:\n{tail}")
    report = json.loads(lines[-1])
    report["peak_rss_mb"] = rss_mb
    return report


class Daemon:
    """``python -m repro serve --workers 1`` in its own process."""

    def __init__(self, spool: str, log_path: str) -> None:
        self._log = open(log_path, "wb")
        started = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--spool", spool,
             "--port", "0", "--workers", "1"],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=self._log,
        )
        try:
            banner = self._read_banner(timeout_s=60.0)
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            if match is None:
                raise BenchError(f"unexpected serve banner: {banner!r}")
            self.host, self.port = match.group(1), int(match.group(2))
            conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            conn.close()
            if response.status != 200:
                raise BenchError(f"/healthz answered {response.status}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - started

    def _read_banner(self, timeout_s: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout_s)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line:
            raise BenchError("serve daemon printed no banner (did it start?)")
        return line

    def stop(self) -> float:
        """Interrupt (the CLI's clean shutdown) and reap; peak RSS in MB."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)
            _, rss_mb = wait_with_rusage(self.proc, 60.0)
        else:
            rss_mb = 0.0
        self.proc.stdout.close()
        self._log.close()
        return rss_mb


# ----------------------------------------------------------------------
# Timed runs (tracing off)
# ----------------------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def timed_in_process_workload(workload, seed, seconds, shrink, work, ledger) -> dict:
    """fig9_hubs_large / scale_1m: fresh processes until time runs out."""
    deadline = time.monotonic() + seconds
    iterations = []
    while True:
        ledger.ops(1)
        started = time.monotonic()
        report = run_child(workload, seed, os.path.join(work, f"it{len(iterations)}"),
                           shrink=shrink)
        report["wall_s"] = time.monotonic() - started
        iterations.append(report)
        expected = expected_outputs(workload, seed, shrink, iterations[0]["outputs"])
        check_outputs(workload, seed, report["outputs"], expected, ledger)
        estimate = max(it["wall_s"] for it in iterations)
        if time.monotonic() + estimate > deadline:
            break
    # A run fits about ten iterations or more.  fig9 reports the fastest
    # (other tenants only ever add time); scale_1m the median, which
    # varied less between its runs (NOTES.md, "Statistics").
    reduce = min if workload == "fig9_hubs_large" else median
    turnaround = reduce([it["turnaround_s"] for it in iterations])
    setups = [it["setup_s"] for it in iterations]
    return {
        "metrics": {
            "setup_s": median(setups),
            "run_s": reduce([it["run_s"] for it in iterations]),
            "turnaround_s": turnaround,
            # No result cache on this path: a repeated request is a
            # full fresh invocation, so it costs one turnaround.
            "dedupe_s": turnaround,
            "peak_rss_mb": median([it["peak_rss_mb"] for it in iterations]),
        },
        "samples": {
            "iterations": len(iterations),
            "setup": len(setups),
            "run_s": [round(it["run_s"], 4) for it in iterations],
            "turnaround_s": [round(it["turnaround_s"], 4) for it in iterations],
            "setup_s": [round(s, 4) for s in setups],
        },
        "outputs": iterations[0]["outputs"],
    }


def serve_cycle(seed, shrink, work, ledger) -> dict:
    """A fresh daemon (empty spool), its cold job, then resubmits."""
    ledger.ops(1)
    os.makedirs(work)
    daemon = Daemon(os.path.join(work, "spool"), os.path.join(work, "serve.log"))
    client = workloads.ServeLoad(daemon.host, daemon.port)
    spec = workloads.serve_spec(seed, shrink)
    try:
        trips = [client.round_trip(spec) for _ in range(1 + workloads.RESUBMITS)]
    finally:
        client.close()
        rss_mb = daemon.stop()
    summary = workloads.summarize_trips(trips)
    account_serve(seed, shrink, summary, client.requests, client.failed_requests, ledger)
    return {"setup_s": daemon.setup_s, "peak_rss_mb": rss_mb, **summary}


def timed_serve(seed, seconds, shrink, work, ledger) -> dict:
    """serve_chaos: daemon processes and this process as their client.

    Each cycle starts ``python -m repro serve`` on an empty spool, so
    its first job is cold; cycles repeat while the next one still fits.
    """
    deadline = time.monotonic() + seconds
    setups = []
    cycles = []
    while True:
        started = time.monotonic()
        cycle = serve_cycle(seed, shrink, os.path.join(work, f"cycle{len(cycles)}"), ledger)
        cycle["wall_s"] = time.monotonic() - started
        cycles.append(cycle)
        setups.append(cycle["setup_s"])
        estimate = max(c["wall_s"] for c in cycles)
        if time.monotonic() + estimate > deadline:
            break
    digests = [c["results_digests"][0] for c in cycles]
    for index, digest in enumerate(digests[1:], 1):
        ledger.check(f"serve_chaos: cycle {index} results.json == cycle 0's",
                     digest == digests[0])
    dedupe = [s for c in cycles for s in c["dedupe_s"]]
    # Medians, not the fastest cycle: a run fits 3-5 cycles, and a cold
    # job's service time moves in the live plane's 0.5 s steps, so the
    # fastest of a few cycles jumps by whole steps from run to run.
    return {
        "metrics": {
            "setup_s": median(setups),
            "run_s": median([c["run_s"] for c in cycles]),
            "turnaround_s": median([c["turnaround_s"] for c in cycles]),
            "dedupe_s": median(dedupe),
            "peak_rss_mb": median([c["peak_rss_mb"] for c in cycles]),
        },
        "samples": {
            "cycles": len(cycles),
            "resubmits": len(dedupe),
            "setup": len(setups),
            "run_s": [round(c["run_s"], 4) for c in cycles],
            "turnaround_s": [round(c["turnaround_s"], 4) for c in cycles],
            "dedupe_s": [round(s, 4) for s in dedupe],
            "setup_s": [round(s, 4) for s in setups],
        },
        "outputs": cycles[0],
    }


def account_serve(seed, shrink, summary, requests, failed_requests, ledger) -> None:
    """Jobs, tasks and HTTP requests as operations; the dedupe checks."""
    ledger.ops(requests, failed_requests)
    ledger.ops(len(summary["states"]), sum(s != "done" for s in summary["states"]))
    ledger.ops(summary["n_tasks"] * len(summary["states"]))
    n_tasks = summary["n_tasks"]
    ledger.check("serve_chaos: the cold job executes every task",
                 summary["executed"][0] == n_tasks)
    for index, executed in enumerate(summary["executed"][1:], 1):
        ledger.check(f"serve_chaos: resubmit {index} executes 0 tasks", executed == 0)
    digests = summary["results_digests"]
    for index, digest in enumerate(digests[1:], 1):
        ledger.check(f"serve_chaos: resubmit {index} results.json == the cold job's",
                     digest == digests[0])
    expected = expected_outputs("serve_chaos", seed, shrink, {"results_digest": digests[0]})
    check_outputs("serve_chaos", seed, {"results_digest": digests[0]}, expected, ledger)


# ----------------------------------------------------------------------
# Traced runs
# ----------------------------------------------------------------------
def traced(workload, seed, shrink, work, ledger) -> dict:
    """An untraced and a traced child; per-layer metrics from the pair."""
    pair = {}
    for mode in ("untraced", "traced"):
        ledger.ops(1)
        report = run_child(workload, seed, os.path.join(work, mode),
                           trace=mode == "traced", shrink=shrink)
        outputs = report["outputs"]
        if workload == "serve_chaos":
            account_serve(seed, shrink, outputs, sum(outputs["requests"]),
                          outputs["failed_requests"], ledger)
        else:
            expected = expected_outputs(workload, seed, shrink, outputs)
            check_outputs(workload, seed, outputs, expected, ledger)
        pair[mode] = report
    return {"metrics": per_layer_metrics(workload, pair["untraced"], pair["traced"]),
            "trace": pair["traced"]["trace"],
            "dedupe_layers": pair["traced"]["outputs"].get("dedupe_layers")}


def per_layer_metrics(workload: str, untraced: dict, traced_report: dict) -> dict:
    trace = traced_report["trace"]
    self_s = {k: v for k, v in trace["self_s"].items() if k != "idle"}
    calls = trace["calls"]
    out = untraced["outputs"]
    metrics = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS}
    thread_s = sum(self_s.values())

    def ratio(numerator, denominator) -> float:
        return numerator / denominator if denominator else 0.0

    metrics.update({
        "simcore.events": calls.get("events", 0),
        "net.link_traversals": calls.get("link_traversals", 0),
        "net.hops_per_packet": ratio(calls.get("link_traversals", 0),
                                     calls.get("host_receives", 0)),
        "net.fastpath_share": ratio(calls.get("fastpath_sends", 0), calls.get("link_send", 0)),
        "net.drops": calls.get("drops", 0),
        "net.tcp_retransmits": calls.get("tcp_retransmits", 0),
        "server.updates_in": calls.get("updates_in", 0),
        "server.fanout": ratio(calls.get("forwarded", 0) + calls.get("relay_push", 0),
                               calls.get("updates_in", 0)),
        "capture.records_retained": calls.get("records_retained", 0),
        "obs.instrument_ops": calls.get("instrument_ops", 0),
        "chaos.faults": calls.get("chaos_faults", 0),
        "qoe.windows": calls.get("qoe_windows", 0),
        "scale.room_ms": 0.0,
        "runner.busy_ratio": 0.0,
        "runner.cache_hit_ratio": 0.0,
        "runner.retries": 0,
        "serve.queue_wait_s": 0.0,
        "serve.service_s": 0.0,
        "serve.requests": 0,
        "dedupe.obs_s": 0.0,
        "setup.import_s": untraced["import_s"],
        "setup.build_s": untraced["build_s"],
        "trace.thread_s": thread_s,
        "tracing_overhead_s": traced_report["traced_s"] - untraced["traced_s"],
        # Everything outside the layers (benchmark code, ``repro/cli.py``),
        # so layer shares plus this remainder are 100%.
        "unattributed_s": thread_s - sum(metrics[f"{layer}.self_s"] for layer in LAYERS),
    })
    if workload == "scale_1m":
        metrics["scale.room_ms"] = 1e3 * out["shard_wall_s"] / out["rooms"]
        metrics["runner.busy_ratio"] = ratio(out["shard_wall_s"],
                                             workloads.SCALE_WORKERS * out["wall_s"])
    elif workload == "serve_chaos":
        metrics.update({
            "runner.busy_ratio": out["busy_ratio"],
            "runner.cache_hit_ratio": out["cache_hit_ratio"],
            "runner.retries": out["retries"],
            # The dedupe path: every job after the cold one.
            "serve.queue_wait_s": median(out["queue_wait_s"][1:]),
            "serve.service_s": median(out["service_s"][1:]),
            "serve.requests": median(out["requests"][1:]),
            "dedupe.obs_s": traced_report["outputs"]["dedupe_layers"].get("obs", 0.0),
        })
    return metrics


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def provenance(workload: str, seed: int, args) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "loadavg_1m": os.getloadavg()[0],
    }


def git_commit():
    """HEAD of the checkout, or None for an exported tree (no ``.git``);
    git is not allowed to look above the checkout for a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest() -> str:
    """One digest of every source file: identifies the code without git."""
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def print_report(workload, result, units, ledger) -> None:
    print(f"== {workload}")
    for name, value in result["metrics"].items():
        print(f"  {name:28s} {value:>14.6g} {units[name]}")
    print(f"  {'failed_ops':28s} {ledger.failed / max(1, ledger.attempted):>14.6g} ratio"
          f"  ({ledger.failed} of {ledger.attempted} operations)")
    for failure in ledger.checks_failed:
        print(f"  CHECK FAILED: {failure}")
    if "samples" in result:
        print(f"  samples: {json.dumps(result['samples'], sort_keys=True)}")
    if "trace" in result:
        print_layer_table(result)


def print_layer_table(result) -> None:
    """Layer shares plus the remainder: 100% of traced thread-seconds."""
    trace = result["trace"]
    self_s = {k: v for k, v in trace["self_s"].items() if k != "idle"}
    total = sum(self_s.values()) or 1.0
    print(f"  layer shares of {total:.3f} traced thread-seconds:")
    for layer, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:14s} {seconds:10.3f} s {100 * seconds / total:6.1f}%")
    print(f"    {'total':14s} {total:10.3f} s {100.0:6.1f}%")
    print("  busiest span edges (parent -> layer: spans):")
    for parent, layer, count in sorted(trace["edges"], key=lambda e: -e[2])[:12]:
        print(f"    {parent:>12s} -> {layer:12s} {count}")
    dedupe = result.get("dedupe_layers")
    if dedupe:
        print("  per resubmit, layer self time (dedupe path):")
        for layer, seconds in sorted(dedupe.items(), key=lambda kv: -kv[1]):
            print(f"    {layer:14s} {seconds:10.4f} s")


def run_workload(workload: str, seed: int, args, work: str) -> tuple:
    ledger = Ledger()
    os.makedirs(work, exist_ok=True)
    if args.trace:
        result = traced(workload, seed, args.shrink, work, ledger)
        units = PER_LAYER
    elif workload == "serve_chaos":
        result = timed_serve(seed, args.seconds, args.shrink, work, ledger)
        units = END_TO_END
    else:
        result = timed_in_process_workload(
            workload, seed, args.seconds, args.shrink, work, ledger
        )
        units = END_TO_END
    return result, units, ledger


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shrink", action="store_true",
                        help="miniature workloads (the self-test)")
    parser.add_argument("--record", action="store_true",
                        help="store this seed's outputs in reference.json")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source at {SRC}/repro; run from a full checkout",
              file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    runs = [(name, mode) for name in (WORKLOADS if args.all else (args.workload,))
            for mode in ((0, 1) if args.all else (args.trace,))]
    total = Ledger()
    metrics = {}
    try:
        for name, mode in runs:
            args.trace = mode
            print("provenance:", json.dumps(provenance(name, args.seed, args),
                                            sort_keys=True))
            result, units, ledger = run_workload(
                name, args.seed, args, os.path.join(work, f"{name}-{mode}")
            )
            print_report(name, result, units, ledger)
            if args.record and not args.shrink and mode == 0:
                record_reference(name, args.seed, result["outputs"])
            total.ops(ledger.attempted, ledger.failed)
            total.checks_failed += ledger.checks_failed
            prefix = f"{name}." if args.all else ""
            for metric, value in result["metrics"].items():
                metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": not total.checks_failed and total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
