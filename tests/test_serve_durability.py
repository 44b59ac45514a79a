"""Queue durability: SIGKILL a worker mid-job, watch the fleet heal.

The scenario the lease protocol exists for:

1. a worker process leases a job and starts a (deliberately slow)
   campaign, heartbeating its lease;
2. the process is SIGKILLed mid-task — no cleanup, no goodbye;
3. the lease stops being extended and expires;
4. a second worker re-leases the job and completes it;
5. because tasks are deterministic and the store is content-addressed,
   the healed run's deterministic artifacts are byte-identical to an
   untouched run of the same spec.

The two workers register different *bodies* under the same experiment
name (the victim's hangs forever, the healer's is instant), which is
exactly the point: the cache key is the task identity, not the code,
so the healed artifacts match the reference bytes.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.measure.experiment import register_experiment, unregister_experiment
from repro.serve import ArtifactStore, JobQueue, ServeWorker
from repro.serve.queue import QUEUE_FILENAME
from repro.serve.schema import normalize_spec, plan_from_spec

EXPERIMENT = "durable-stub"
SPEC = {"experiments": [EXPERIMENT], "seeds": [0, 1], "parallel": False}

#: The victim worker's experiment body: signal "I'm mid-task" through
#: a marker file (path via env, NOT kwargs — kwargs are part of the
#: cache key and must be identical across workers), then wedge.
VICTIM_SCRIPT = textwrap.dedent(
    """
    import os, time
    from repro.measure.experiment import register_experiment
    from repro.serve import ServeWorker

    def wedged_stub(seed=0):
        with open(os.environ["REPRO_TEST_MARKER"] + f".{seed}", "w") as fh:
            fh.write("leased and running")
        time.sleep(120.0)  # never finishes; SIGKILL arrives first

    register_experiment("%s", wedged_stub, artifact="test", replace=True)
    ServeWorker(os.environ["REPRO_TEST_SPOOL"], lease_s=2.0).run_once()
    """
    % EXPERIMENT
)


def healthy_stub(seed=0):
    return {"seed": seed, "value": 7.0 * seed + 2.0}


@pytest.fixture(autouse=True)
def _register_stub():
    register_experiment(EXPERIMENT, healthy_stub, artifact="test", replace=True)
    yield
    unregister_experiment(EXPERIMENT)


def _submit(queue, spec=SPEC):
    normalized = normalize_spec(spec)
    plan = plan_from_spec(normalized)
    return queue.submit(
        normalized, campaign_id=plan.campaign_id, n_tasks=len(plan.tasks)
    )


def _wait_for(predicate, timeout_s=30.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


def _read(spool, tenant, job_id, name):
    store = ArtifactStore(spool)
    return store.read_artifact(tenant, job_id, name)


def test_sigkilled_worker_job_is_released_and_completed(tmp_path):
    spool = str(tmp_path / "spool")
    marker = str(tmp_path / "marker")
    queue = JobQueue(os.path.join(spool, QUEUE_FILENAME))
    job = _submit(queue)

    # An untouched reference run of the same spec in a separate spool
    # pins the expected deterministic artifact bytes.
    ref_spool = str(tmp_path / "ref-spool")
    ref_queue = JobQueue(os.path.join(ref_spool, QUEUE_FILENAME))
    ref_job = _submit(ref_queue)
    assert ServeWorker(ref_spool, lease_s=30.0).run_once().state == "done"
    reference = _read(ref_spool, "public", ref_job.id, "results.json")
    assert reference is not None

    env = dict(
        os.environ,
        REPRO_TEST_MARKER=marker,
        REPRO_TEST_SPOOL=spool,
        PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""),
    )
    victim = subprocess.Popen(
        [sys.executable, "-c", VICTIM_SCRIPT],
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    try:
        # Wait until the victim has leased the job and is inside a task.
        assert _wait_for(lambda: os.path.exists(marker + ".0")), (
            "victim worker never started the campaign"
        )
        leased = queue.get(job.id)
        assert leased.state == "running"
        assert leased.attempts == 1
        victim_owner = leased.lease_owner

        # While the victim heartbeats, the job is not leasable.
        assert queue.lease("bystander", 2.0) is None

        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=10)

        # No heartbeats now — the lease expires and the job is leasable
        # again.  A healthy worker picks it up and completes it.
        healer = ServeWorker(spool, lease_s=30.0, poll_s=0.05)
        assert _wait_for(lambda: healer.run_once() is not None, timeout_s=15.0), (
            "job lease never expired after SIGKILL"
        )
    finally:
        if victim.poll() is None:  # pragma: no cover - cleanup on failure
            victim.kill()

    healed = queue.get(job.id)
    assert healed.state == "done"
    assert healed.attempts == 2  # victim's lease + healer's lease
    assert healed.lease_owner != victim_owner
    assert healed.summary["succeeded"] == 2

    # Byte-identity despite the crash: the healed artifacts match the
    # untouched reference run exactly.
    assert _read(spool, "public", job.id, "results.json") == reference

    # ...and a resubmission on the healed spool is pure cache hits.
    again = _submit(queue)
    done = ServeWorker(spool, lease_s=30.0).run_once()
    assert done.id == again.id
    assert done.summary["cache_hits"] == 2
    assert done.summary["executed"] == 0
    assert _read(spool, "public", again.id, "results.json") == reference

    queue.close()
    ref_queue.close()


def test_zombie_worker_cannot_clobber_the_healed_result(tmp_path):
    """Unit-level companion: even if the SIGKILLed worker *had*
    survived as a zombie and finished late, the lease guard discards
    its completion (see test_serve_queue for the full matrix)."""
    spool = str(tmp_path / "spool")
    queue = JobQueue(os.path.join(spool, QUEUE_FILENAME))
    job = _submit(queue)
    with open(os.path.join(spool, QUEUE_FILENAME), "rb"):
        pass  # the queue file exists and is shared
    zombie = JobQueue(os.path.join(spool, QUEUE_FILENAME))
    zombie.lease("zombie", 0.05)
    time.sleep(0.1)
    healer = ServeWorker(spool, lease_s=30.0)
    assert healer.run_once().state == "done"
    assert not zombie.complete(job.id, "zombie", {"ok": False})
    final = queue.get(job.id)
    assert final.state == "done"
    assert final.summary["succeeded"] == 2
    zombie.close()
    queue.close()


def test_a_worker_that_shares_only_the_spool_polls_for_jobs(tmp_path):
    """No wake crosses queue handles: a worker on its own handle (as in
    a ``repro worker`` process) leases another handle's job by polling."""
    spool = str(tmp_path / "spool")
    queue = JobQueue(os.path.join(spool, QUEUE_FILENAME))
    worker = ServeWorker(spool, poll_s=0.05)
    assert worker.queue is not queue
    thread = threading.Thread(
        target=worker.run_forever, kwargs={"max_jobs": 1}, daemon=True
    )
    thread.start()
    time.sleep(0.1)  # the worker has found the queue empty and waits
    job = _submit(queue)
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert worker.jobs_run == 1
    assert queue.get(job.id).state == "done"
    worker.queue.close()
    queue.close()
