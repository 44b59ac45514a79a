"""End-to-end serve control plane: HTTP API, workers, dedupe, tenants.

Each test stands up a real :class:`ServeDaemon` on a loopback port
with in-process worker threads and drives it through
:class:`ServeClient` — the same path the CLI subcommands use.  Specs
run serial so the stub registry below is visible to the worker.
"""

import json
import math
import pathlib
import socket
import time

import pytest

from repro.cli import main
from repro.measure.experiment import register_experiment, unregister_experiment
from repro.obs.live import live_server
from repro.serve import JobQueue, ServeApiError, ServeClient, ServeDaemon
from repro.serve.api import DEFAULT_TENANT
from repro.serve.schema import (
    SpecError,
    normalize_spec,
    parse_seeds,
    plan_from_spec,
    validate_spec,
)

from tests.conftest import keep_alive_seconds


def serve_stub(seed=0, scale=1.0):
    return {"seed": seed, "value": scale * (2.0 * seed + 1.0)}


@pytest.fixture(autouse=True)
def _register_stub():
    register_experiment("serve-stub", serve_stub, artifact="test", replace=True)
    yield
    unregister_experiment("serve-stub")


SPEC = {"experiments": ["serve-stub"], "seeds": 2, "parallel": False}


@pytest.fixture()
def daemon(tmp_path):
    with ServeDaemon(tmp_path / "spool", n_workers=1, live_workers=False) as d:
        yield d


@pytest.fixture()
def client(daemon):
    return ServeClient(daemon.url)


# ----------------------------------------------------------------------
# Spec schema
# ----------------------------------------------------------------------
def test_validate_spec_reports_every_problem_at_once():
    errors = validate_spec(
        {"grid": [], "seeds": "x", "bogus_key": 1, "priority": "high"}
    )
    text = "\n".join(errors)
    assert "experiments" in text
    assert "bogus_key" in text
    assert "grid" in text
    assert "priority" in text
    assert len(errors) >= 4


def test_validate_spec_rejects_params_no_experiment_accepts():
    errors = validate_spec(
        {
            "experiments": ["throughput", "forwarding"],
            "grid": {"n_users": [2, 4, 8], "platforms": [["vrchat"]]},
            "base_kwargs": {"duration": 20.0},
        }
    )
    assert errors == [
        "grid axis 'n_users' is accepted by none of the listed experiments "
        "(throughput, forwarding)",
        "base_kwargs key 'duration' is accepted by none of the listed "
        "experiments (throughput, forwarding)",
    ]


def test_serve_doc_example_spec_is_valid():
    """The example spec in docs/SERVE.md plans every grid point."""
    doc = (pathlib.Path(__file__).parents[1] / "docs" / "SERVE.md").read_text()
    example = doc.split("## Campaign specs", 1)[1].split("```json", 1)[1]
    spec = json.loads(example.split("```", 1)[0])
    assert validate_spec(spec) == []
    n_points = math.prod(len(values) for values in spec["grid"].values())
    n_seeds = len(parse_seeds(spec["seeds"]))
    assert len(plan_from_spec(spec)) == len(spec["experiments"]) * n_points * n_seeds


def test_normalize_spec_expands_seed_shorthand():
    spec = normalize_spec({"experiments": ["serve-stub"], "seeds": "2:5"})
    assert spec["seeds"] == [2, 3, 4]
    assert spec["parallel"] is True  # default applied
    with pytest.raises(SpecError):
        normalize_spec({"experiments": ["no-such-experiment"]})


# ----------------------------------------------------------------------
# Jobs over HTTP
# ----------------------------------------------------------------------
def test_submit_runs_to_done_with_artifacts(client):
    job = client.submit(SPEC)
    assert job["state"] == "queued"
    assert job["n_tasks"] == 2
    done = client.wait(job["id"], timeout_s=60)
    assert done["state"] == "done"
    assert done["summary"]["succeeded"] == 2
    assert done["summary"]["campaign_id"] == done["campaign_id"]
    assert "results.json" in done["artifacts"]
    results = json.loads(client.fetch_artifact(job["id"], "results.json"))
    assert results["campaign_id"] == done["campaign_id"]
    assert [task["value"]["value"] for task in results["tasks"]] == [1.0, 3.0]
    # Telemetry events carry the correlation ids.
    telemetry = client.fetch_artifact(job["id"], "telemetry.jsonl").decode()
    event = json.loads(telemetry.splitlines()[0])
    assert event["campaign_id"] == done["campaign_id"]
    assert event["job_id"] == job["id"]


def test_resubmission_dedupes_to_byte_identical_artifacts(client):
    """Acceptance: identical spec => zero re-simulation, same bytes."""
    first = client.wait(client.submit(SPEC)["id"], timeout_s=60)
    second = client.wait(client.submit(SPEC)["id"], timeout_s=60)
    assert second["summary"]["cache_hits"] == second["n_tasks"]
    assert second["summary"]["executed"] == 0
    for name in ("results.json", "manifest.json"):
        assert client.fetch_artifact(first["id"], name) == client.fetch_artifact(
            second["id"], name
        )


def test_invalid_spec_is_rejected_with_details(client):
    with pytest.raises(ServeApiError) as excinfo:
        client.submit({"experiments": ["no-such-experiment"], "seeds": -1})
    assert excinfo.value.status == 400
    assert excinfo.value.body["error"] == "invalid campaign spec"
    assert len(excinfo.value.body["errors"]) >= 2


def test_spec_with_unaccepted_param_is_rejected(client):
    with pytest.raises(ServeApiError) as excinfo:
        client.submit({**SPEC, "grid": {"scael": [2.0]}})
    assert excinfo.value.status == 400
    assert excinfo.value.body["errors"] == [
        "grid axis 'scael' is accepted by none of the listed experiments "
        "(serve-stub)"
    ]


def test_unknown_routes_and_jobs_are_404(client):
    for path in ("/v1/jobs/job-nope", "/v1/nothing"):
        with pytest.raises(ServeApiError) as excinfo:
            client._json(path)
        assert excinfo.value.status == 404


def test_cancel_queued_job(tmp_path):
    # No workers: the job stays queued until we cancel it.
    with ServeDaemon(tmp_path / "spool", n_workers=0) as daemon:
        client = ServeClient(daemon.url)
        job = client.submit(SPEC)
        cancelled = client.cancel(job["id"])
        assert cancelled["state"] == "cancelled"
        assert cancelled["terminal"]


def test_experiments_endpoint_lists_registry(client):
    names = {entry["name"] for entry in client.experiments()}
    assert "serve-stub" in names
    assert "throughput" in names


def test_healthz_and_counts(client):
    health = client.health()
    assert health["status"] == "ok"
    assert set(health["jobs"]) == {"queued", "running", "done", "failed", "cancelled"}


def test_cas_payload_fetch_roundtrip(client):
    import pickle

    job = client.wait(client.submit(SPEC)["id"], timeout_s=60)
    manifest = json.loads(client.fetch_artifact(job["id"], "manifest.json"))
    digest = next(iter(manifest["tasks"].values()))
    payload = pickle.loads(client.fetch_cas(job["id"], digest))
    assert payload["value"] in (1.0, 3.0)
    with pytest.raises(ServeApiError) as excinfo:
        client.fetch_cas(job["id"], "f" * 64)  # not in this job's manifest
    assert excinfo.value.status == 404


def test_collect_obs_metrics_artifacts_roundtrip(client):
    """Per-task metrics dump names embed ``#``; fetch must survive it."""
    from repro.simcore import Simulator

    def sim_stub(seed=0):
        sim = Simulator(seed=seed)
        sim.schedule(0.1, lambda: None)
        sim.run()
        return {"seed": seed, "now": sim.now}

    register_experiment("serve-sim-stub", sim_stub, artifact="test", replace=True)
    try:
        spec = {
            "experiments": ["serve-sim-stub"],
            "seeds": 1,
            "parallel": False,
            "collect_obs": True,
        }
        job = client.wait(client.submit(spec)["id"], timeout_s=60)
        assert job["state"] == "done"
        hashed = [
            name
            for name in job["artifacts"]
            if name.startswith("metrics") and "#" in name
        ]
        assert hashed, job["artifacts"]
        json.loads(client.fetch_artifact(job["id"], hashed[0]))
    finally:
        unregister_experiment("serve-sim-stub")


def test_daemon_metrics_rollup_folds_jobs(client):
    """GET /metrics folds every job's campaign registry deterministically."""
    from repro.simcore import Simulator

    def sim_stub(seed=0):
        sim = Simulator(seed=seed)
        sim.schedule(0.1, lambda: None)
        sim.run()
        return {"seed": seed, "now": sim.now}

    register_experiment("serve-sim-stub", sim_stub, artifact="test", replace=True)
    try:
        base = {"experiments": ["serve-sim-stub"], "parallel": False, "collect_obs": True}
        client.wait(client.submit({**base, "seeds": 1})["id"], timeout_s=60)
        first = client.metrics()
        assert "repro_serve_jobs_aggregated 1" in first
        client.wait(client.submit({**base, "seeds": "1:3"})["id"], timeout_s=60)
        second = client.metrics()
        assert "repro_serve_jobs_aggregated 2" in second
        # The fold sums the per-job kernel counters: one event executed
        # per task, three tasks across the two jobs.
        events = [
            line
            for line in second.splitlines()
            if line.startswith("sim_events_dispatched_total")
        ]
        assert events, second
        assert sum(float(line.rsplit(" ", 1)[1]) for line in events) == 3.0
        # Deterministic: the same job set renders the same bytes.
        assert client.metrics() == second
    finally:
        unregister_experiment("serve-sim-stub")


def test_keep_alive_requests_do_not_stall(daemon):
    """Ten requests on one connection: a delayed-ACK stall (~40 ms
    each) would take ~0.4 s."""
    assert keep_alive_seconds(daemon.url, "/v1/jobs") < 0.2


def test_close_returns_promptly(tmp_path):
    """close() wakes its idle workers, whose poll_s (0.25 s) would
    exceed the bound, and its serve loop, which has no poll to wait out,
    while a live plane is attached."""
    daemon = ServeDaemon(tmp_path / "spool", n_workers=2).start()
    with live_server(port=0):
        time.sleep(0.05)  # both workers found the queue empty and wait
        started = time.perf_counter()
        daemon.close()
        assert time.perf_counter() - started < 0.2
    daemon.close()  # a second close does nothing


# ----------------------------------------------------------------------
# Jobs start when submitted
# ----------------------------------------------------------------------
def _daemon_polling_every_30_s(spool) -> ServeDaemon:
    daemon = ServeDaemon(spool, n_workers=1, live_workers=False)
    for worker in daemon._workers:
        worker.poll_s = 30.0
    return daemon


def test_submit_wakes_an_idle_worker(tmp_path):
    """The job is leased when it is submitted, not at the next poll."""
    with _daemon_polling_every_30_s(tmp_path / "spool") as daemon:
        client = ServeClient(daemon.url)
        time.sleep(0.05)  # the worker found the queue empty and waits
        done = client.wait(client.submit(SPEC)["id"], timeout_s=5)
        assert done["state"] == "done"


def test_a_submit_right_after_an_empty_lease_is_not_lost(tmp_path, monkeypatch):
    """A submit that lands between a worker's empty lease() and its wait
    still ends that wait at once."""
    daemon = _daemon_polling_every_30_s(tmp_path / "spool")
    lease = JobQueue.lease
    submitted = []

    def lease_then_submit(queue, owner, lease_s):
        job = lease(queue, owner, lease_s)
        if job is None and not submitted:
            submitted.append(daemon.submit(SPEC, DEFAULT_TENANT))
        return job

    monkeypatch.setattr(JobQueue, "lease", lease_then_submit)
    with daemon:
        deadline = time.monotonic() + 5
        while not submitted and time.monotonic() < deadline:
            time.sleep(0.01)
        assert submitted
        done = ServeClient(daemon.url).wait(submitted[0].id, timeout_s=5)
        assert done["state"] == "done"


def test_every_resubmit_lists_its_spec_and_no_temporary_file(client):
    """A job is leased only once its spec.json is on disk, so the
    artifact list a worker takes at the end of a fast job holds it."""
    client.wait(client.submit(SPEC)["id"], timeout_s=60)
    for _ in range(20):
        job = client.wait(client.submit(SPEC)["id"], timeout_s=60)
        assert job["summary"]["executed"] == 0
        artifacts = job["summary"]["artifacts"]
        assert "spec.json" in artifacts
        assert not [name for name in artifacts if ".tmp." in name], artifacts


def test_live_proxy_conflict_when_no_live_plane(client):
    job = client.wait(client.submit(SPEC)["id"], timeout_s=60)
    with pytest.raises(ServeApiError) as excinfo:
        client.live(job["id"], "progress")
    assert excinfo.value.status == 409  # terminal job has no live plane


def test_live_proxy_relays_the_live_planes_own_error(tmp_path):
    """A live plane's 400 reaches the client as that 400, not as a 409
    "live plane is gone"."""
    with ServeDaemon(tmp_path / "spool", n_workers=0, live_workers=False) as daemon:
        client = ServeClient(daemon.url)
        job_id = client.submit(SPEC)["id"]
        assert daemon.queue.lease("test-worker", lease_s=60).id == job_id
        with live_server(port=0) as live:
            assert daemon.queue.set_live_url(job_id, "test-worker", live.url)
            with pytest.raises(ServeApiError) as excinfo:
                client.live(job_id, "events", query="limit=abc")
    assert excinfo.value.status == 400
    assert "limit and since must be integers" in str(excinfo.value.body)


@pytest.mark.parametrize(
    "argv",
    [["status"], ["submit", "--experiments", "serve-stub"], ["artifacts", "job"]],
    ids=["status", "submit", "artifacts"],
)
def test_cli_reports_an_unreachable_control_plane_in_one_line(argv, capsys):
    with socket.socket() as sock:  # bound, then closed: nothing listens
        sock.bind(("127.0.0.1", 0))
        url = f"http://127.0.0.1:{sock.getsockname()[1]}"
    assert main([*argv, "--url", url]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and url in err, err


# ----------------------------------------------------------------------
# Tenants
# ----------------------------------------------------------------------
@pytest.fixture()
def tenanted(tmp_path):
    tokens = {"acme-secret": "acme", "rival-secret": "rival"}
    with ServeDaemon(
        tmp_path / "spool", n_workers=1, tokens=tokens, live_workers=False
    ) as daemon:
        yield daemon


def test_missing_or_unknown_token_is_401(tenanted):
    anonymous = ServeClient(tenanted.url)
    with pytest.raises(ServeApiError) as excinfo:
        anonymous.jobs()
    assert excinfo.value.status == 401
    impostor = ServeClient(tenanted.url, token="wrong-secret")
    with pytest.raises(ServeApiError) as excinfo:
        impostor.jobs()
    assert excinfo.value.status == 401
    # /healthz stays open for probes.
    assert anonymous.health()["status"] == "ok"


def test_tenants_cannot_see_each_others_jobs(tenanted):
    acme = ServeClient(tenanted.url, token="acme-secret")
    rival = ServeClient(tenanted.url, token="rival-secret")
    job = acme.wait(acme.submit(SPEC)["id"], timeout_s=60)
    assert job["tenant"] == "acme"
    # To the other tenant the job does not exist — 404, not 403.
    for call in (
        lambda: rival.job(job["id"]),
        lambda: rival.artifacts(job["id"]),
        lambda: rival.cancel(job["id"]),
    ):
        with pytest.raises(ServeApiError) as excinfo:
            call()
        assert excinfo.value.status == 404
    assert rival.jobs() == []
    # ...but the dedupe layer is still shared: rival's identical
    # campaign is pure cache hits.
    twin = rival.wait(rival.submit(SPEC)["id"], timeout_s=60)
    assert twin["summary"]["cache_hits"] == twin["n_tasks"]
    assert acme.fetch_artifact(job["id"], "results.json") == rival.fetch_artifact(
        twin["id"], "results.json"
    )


# ----------------------------------------------------------------------
# Restart recovery
# ----------------------------------------------------------------------
def test_daemon_restart_recovers_orphaned_jobs(tmp_path):
    spool = tmp_path / "spool"
    with ServeDaemon(spool, n_workers=0, lease_s=0.1) as daemon:
        client = ServeClient(daemon.url)
        job = client.submit(SPEC)
        # Simulate a worker that leased the job and then died with the
        # old daemon process.
        daemon.queue.lease("doomed-worker", 0.1)
    import time

    time.sleep(0.2)  # lease expires
    with ServeDaemon(spool, n_workers=1, live_workers=False) as reborn:
        assert reborn.recovered_jobs == 1
        client = ServeClient(reborn.url)
        done = client.wait(job["id"], timeout_s=60)
        assert done["state"] == "done"
        assert done["attempts"] == 2
