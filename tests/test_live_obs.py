"""The live observability plane: endpoints, streaming, read-only-ness.

Stub experiments live at module level so worker processes can unpickle
them by reference (same idiom as test_runner.py).
"""

import json
import os
import pickle
import threading
import time
import typing
import urllib.error
import urllib.request

import pytest

from repro.measure.experiment import register_experiment, unregister_experiment
from repro.obs.export import to_prometheus
from repro.obs.fleet import REGISTRY_FILENAME, load_campaign_registry
from repro.obs.live import LiveObsServer, active_live_server, live_server
from repro.runner import CampaignPlan, run_campaign, task_dump_filename
from repro.serve import ServeDaemon
from repro.simcore import Simulator

from tests.conftest import keep_alive_seconds


def live_sim_stub(seed=0):
    sim = Simulator(seed=seed)
    for index in range(5):
        sim.schedule(0.1 * (index + 1), lambda: None)
    sim.run()
    return {"seed": seed, "now": sim.now}


@pytest.fixture(autouse=True)
def _register_stub():
    register_experiment("live-tiny", live_sim_stub, artifact="test", replace=True)
    yield
    unregister_experiment("live-tiny")


def _get(url: str) -> str:
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.read().decode()


# ----------------------------------------------------------------------
# Endpoints
# ----------------------------------------------------------------------
def test_endpoints_before_any_campaign():
    with live_server(port=0) as server:
        assert active_live_server() is server
        assert _get(server.url + "/healthz") == "ok\n"
        progress = json.loads(_get(server.url + "/progress"))
        assert progress["n_tasks"] == 0
        assert progress["finished"] is False
        assert progress["eta_s"] == 0.0  # no tasks known -> nothing left
        # Empty aggregate still renders the progress gauges.
        metrics = _get(server.url + "/metrics")
        assert "repro_campaign_tasks 0" in metrics
    assert active_live_server() is None


def test_unknown_route_is_404():
    with live_server(port=0) as server:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/nope")
        assert excinfo.value.code == 404


@pytest.mark.parametrize("query", ["limit=abc", "since=x"])
def test_malformed_events_query_is_400(query):
    with live_server(port=0) as server:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/events?" + query)
        assert excinfo.value.code == 400


def test_keep_alive_requests_do_not_stall():
    """Ten requests on one connection: a delayed-ACK stall (~40 ms
    each) would take ~0.4 s."""
    with live_server(port=0) as server:
        assert keep_alive_seconds(server.url, "/progress") < 0.2


def test_campaign_feeds_live_server(tmp_path):
    plan = CampaignPlan.from_matrix(["live-tiny"], seeds=range(3))
    with live_server(port=0) as server:
        campaign = run_campaign(plan, parallel=True, max_workers=2, cache_dir=None)
        assert campaign.ok
        progress = json.loads(_get(server.url + "/progress"))
        assert progress["n_tasks"] == 3
        assert progress["done"] == 3
        assert progress["failed"] == 0
        assert progress["finished"] is True
        assert progress["eta_s"] == 0.0
        assert progress["campaign_id"] == plan.campaign_id
        assert progress["summary"]["succeeded"] == 3
        metrics = _get(server.url + "/metrics")
        # Cross-worker aggregate: 3 tasks x 5 events each.
        assert "sim_events_dispatched_total 15" in metrics
        assert "repro_campaign_tasks_done 3" in metrics


def test_a_live_plane_alone_collects_metrics_only(tmp_path):
    """A live plane folds the kernel counters without a trace or the
    callback profile; ``metrics_dir`` still asks for full collection."""
    plan = CampaignPlan.from_matrix(["live-tiny"], seeds=range(2))
    with live_server(port=0) as server:
        campaign = run_campaign(plan, parallel=False, cache_dir=None)
        metrics = _get(server.url + "/metrics")
    assert "sim_events_dispatched_total 10" in metrics
    assert "sim_callback_wall_s" not in metrics
    assert [r.metrics["trace"]["events"] for r in campaign] == [[], []]

    metrics_dir = str(tmp_path / "metrics")
    with live_server(port=0) as server:
        campaign = run_campaign(
            plan, parallel=False, cache_dir=None, metrics_dir=metrics_dir
        )
        metrics = _get(server.url + "/metrics")
    assert "sim_callback_wall_s" in metrics
    for result in campaign:
        path = os.path.join(metrics_dir, task_dump_filename(result.spec.task_id))
        with open(path) as handle:
            assert json.load(handle)["trace"]["events"]


def test_sse_tail_with_limit():
    plan = CampaignPlan.from_matrix(["live-tiny"], seeds=[0])
    with live_server(port=0) as server:
        run_campaign(plan, parallel=False, cache_dir=None)
        body = _get(server.url + "/events?limit=2")
    frames = [line for line in body.splitlines() if line.startswith("data: ")]
    assert len(frames) == 2
    first = json.loads(frames[0][len("data: "):])
    assert first["event"] == "campaign_start"
    assert first["campaign_id"] == plan.campaign_id
    # Registry payloads are never streamed over SSE.
    assert "bucket_counts" not in body


def test_sse_frames_equal_the_telemetry_records(tmp_path):
    """``campaign_index`` keeps its ``registry`` path on the stream."""
    plan = CampaignPlan.from_matrix(["live-tiny"], seeds=[0])
    telemetry_path = str(tmp_path / "telemetry.jsonl")
    with live_server(port=0) as server:
        run_campaign(
            plan, parallel=False, cache_dir=None, telemetry_path=telemetry_path,
            metrics_dir=str(tmp_path / "metrics"),
        )
        with open(telemetry_path) as handle:
            records = [json.loads(line) for line in handle]
        body = _get(server.url + f"/events?limit={len(records)}")
    frames = [
        json.loads(line[len("data: "):])
        for line in body.splitlines()
        if line.startswith("data: ")
    ]
    assert frames == records
    (index,) = [frame for frame in frames if frame["event"] == "campaign_index"]
    assert index["registry"].endswith(REGISTRY_FILENAME)


def test_sse_since_resumes_after_an_id():
    plan = CampaignPlan.from_matrix(["live-tiny"], seeds=[0])
    with live_server(port=0) as server:
        run_campaign(plan, parallel=False, cache_dir=None)
        body = _get(server.url + "/events?limit=1&since=0")
    id_line = [line for line in body.splitlines() if line.startswith("id: ")][0]
    assert int(id_line[len("id: "):]) >= 1


def test_cache_hits_count_toward_progress(tmp_path):
    cache_dir = str(tmp_path / "cache")
    plan = CampaignPlan.from_matrix(["live-tiny"], seeds=range(2))
    run_campaign(plan, parallel=False, cache_dir=cache_dir)
    with live_server(port=0) as server:
        run_campaign(plan, parallel=False, cache_dir=cache_dir)
        progress = json.loads(_get(server.url + "/progress"))
    assert progress["cache_hits"] == 2
    assert progress["done"] == 0
    assert progress["finished"] is True


# ----------------------------------------------------------------------
# The read-only guarantee
# ----------------------------------------------------------------------
def _events_dispatched(prometheus_text: str) -> typing.List[str]:
    return [
        line
        for line in prometheus_text.splitlines()
        if line.startswith("sim_events_dispatched_total")
    ]


def test_live_observed_campaign_is_byte_identical(tmp_path):
    """Acceptance: a campaign with the live plane attached produces
    byte-identical results and aggregate to one without, and the plane's
    /metrics folds the same kernel events.  The Fig. 7 sweep nests a
    campaign inside each unit: that campaign feeds no plane and leaves
    collection to the unit, serially and on a worker alike."""
    tiny = CampaignPlan.from_matrix(["live-tiny"], seeds=range(3))
    sweep = CampaignPlan.from_matrix(
        ["scalability"],
        grid={"platforms": [("vrchat",)], "user_counts": [(1, 2)]},
        seeds=[0],
    )
    for name, plan, options in (
        ("tiny", tiny, {"parallel": True, "max_workers": 2}),
        ("nested-serial", sweep, {"parallel": False}),
        ("nested-one-worker", sweep, {"parallel": True, "max_workers": 1}),
    ):
        silent_dir = str(tmp_path / name / "silent")
        live_dir = str(tmp_path / name / "live")
        silent = run_campaign(plan, cache_dir=None, metrics_dir=silent_dir, **options)
        with live_server(port=0) as server:
            observed = run_campaign(
                plan, cache_dir=None, metrics_dir=live_dir, **options
            )
            metrics = _get(server.url + "/metrics")
        assert pickle.dumps(silent.values()) == pickle.dumps(observed.values()), name
        silent_path = os.path.join(silent_dir, REGISTRY_FILENAME)
        with open(silent_path, "rb") as handle:
            silent_registry = handle.read()
        with open(os.path.join(live_dir, REGISTRY_FILENAME), "rb") as handle:
            live_registry = handle.read()
        assert silent_registry == live_registry, name
        folded = to_prometheus(load_campaign_registry(silent_path).merged_registry())
        assert _events_dispatched(folded), name
        assert _events_dispatched(metrics) == _events_dispatched(folded), name


_SECOND_UNIT_MAY_RUN = threading.Event()


def live_gated_stub(seed=0):
    """``live_sim_stub``; seed 1 first waits for the test's go-ahead."""
    if seed == 1:
        assert _SECOND_UNIT_MAY_RUN.wait(30)
    return live_sim_stub(seed)


def test_a_serial_unit_is_folded_before_the_next_one_starts():
    """/metrics shows the first unit's five events while the second
    unit still runs."""
    register_experiment("live-gated", live_gated_stub, artifact="test", replace=True)
    _SECOND_UNIT_MAY_RUN.clear()
    plan = CampaignPlan.from_matrix(["live-gated"], seeds=range(2))
    servers = []
    opened = threading.Event()

    def run_observed() -> None:
        with live_server(port=0) as server:
            servers.append(server)
            opened.set()
            run_campaign(plan, parallel=False, cache_dir=None)

    runner = threading.Thread(target=run_observed)
    runner.start()
    try:
        assert opened.wait(10)
        deadline = time.monotonic() + 10
        metrics = _get(servers[0].url + "/metrics")
        while "sim_events_dispatched_total 5" not in metrics:
            assert time.monotonic() < deadline, metrics
            time.sleep(0.02)
            metrics = _get(servers[0].url + "/metrics")
    finally:
        _SECOND_UNIT_MAY_RUN.set()
        runner.join(30)
        unregister_experiment("live-gated")
    assert not runner.is_alive()


def test_campaign_registry_is_worker_count_invariant(tmp_path):
    """Acceptance: 1 worker vs N workers vs serial -> byte-identical
    campaign_registry.json."""
    plan = CampaignPlan.from_matrix(["live-tiny"], seeds=range(4))
    blobs = []
    for tag, kwargs in (
        ("serial", {"parallel": False}),
        ("w1", {"parallel": True, "max_workers": 1}),
        ("w3", {"parallel": True, "max_workers": 3}),
    ):
        metrics_dir = str(tmp_path / tag)
        campaign = run_campaign(
            plan, cache_dir=None, metrics_dir=metrics_dir, **kwargs
        )
        assert campaign.ok
        with open(
            os.path.join(metrics_dir, "campaign_registry.json"), "rb"
        ) as handle:
            blobs.append(handle.read())
    assert blobs[0] == blobs[1] == blobs[2]


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def test_close_is_idempotent():
    server = LiveObsServer(port=0)
    server.close()
    server.close()


def test_close_returns_promptly(tmp_path):
    """A live plane attached beside a serve daemon with idle in-process
    workers closes at once: its serve loop has no poll to wait out."""
    with ServeDaemon(tmp_path / "spool", n_workers=2):
        with live_server(port=0) as server:
            time.sleep(0.05)
            started = time.perf_counter()
        assert server.closed
        assert time.perf_counter() - started < 0.2


def test_close_wakes_a_blocked_serve_loop():
    """The serve loop blocks in select() with no timeout; close() must
    wake it instead of waiting for a request that never comes."""
    server = LiveObsServer(port=0)
    time.sleep(0.05)  # the loop is blocked in select()
    closer = threading.Thread(target=server.close, daemon=True)
    closer.start()
    closer.join(timeout=5.0)
    assert not closer.is_alive()


def test_nested_live_server_restores_previous():
    with live_server(port=0) as outer:
        with live_server(port=0) as inner:
            assert active_live_server() is inner
        assert active_live_server() is outer


# ----------------------------------------------------------------------
# Busy ports fail fast (and port 0 tells you what it picked)
# ----------------------------------------------------------------------
def test_busy_port_raises_with_actionable_message():
    import socket

    from repro.obs.live import LivePortBusyError

    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    busy_port = blocker.getsockname()[1]
    try:
        with pytest.raises(LivePortBusyError) as excinfo:
            LiveObsServer(port=busy_port)
        message = str(excinfo.value)
        assert f"127.0.0.1:{busy_port}" in message
        assert "port 0" in message  # the one-line fix is in the error
        assert isinstance(excinfo.value, OSError)  # old handlers still work
    finally:
        blocker.close()


def test_cli_busy_live_port_exits_cleanly(capsys):
    import socket

    from repro.cli import main

    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    busy_port = blocker.getsockname()[1]
    try:
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "campaign",
                    "--experiments", "live-tiny",
                    "--seeds", "1",
                    "--serial",
                    "--no-cache",
                    "--live-port", str(busy_port),
                ]
            )
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert str(busy_port) in captured.err
        # Fail-fast: no campaign output before the error.
        assert "campaign of" not in captured.out
    finally:
        blocker.close()


def test_cli_live_port_zero_prints_chosen_port(capsys):
    from repro.cli import main

    code = main(
        [
            "campaign",
            "--experiments", "live-tiny",
            "--seeds", "1",
            "--serial",
            "--no-cache",
            "--live-port", "0",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "picked free port" in out
    assert "live observability at http://127.0.0.1:" in out
