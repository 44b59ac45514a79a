"""The durable job queue: leases, expiry, guards, persistence.

All timing-sensitive behaviour is driven through the queue's
injectable ``clock`` so nothing here sleeps.
"""

import os

import pytest

from repro.serve.queue import QUEUE_FILENAME, JobQueue


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def queue(tmp_path, clock):
    with JobQueue(tmp_path / QUEUE_FILENAME, clock=clock) as q:
        yield q


SPEC = {"experiments": ["throughput"], "seeds": [0]}


# ----------------------------------------------------------------------
# Submission and lookup
# ----------------------------------------------------------------------
def test_submit_creates_queued_job(queue):
    job = queue.submit(SPEC, tenant="acme", campaign_id="c1", n_tasks=3)
    assert job.state == "queued"
    assert job.tenant == "acme"
    assert job.spec == SPEC
    assert job.n_tasks == 3
    assert job.attempts == 0
    assert not job.terminal
    assert queue.counts()["queued"] == 1


def test_get_enforces_tenant_namespace(queue):
    job = queue.submit(SPEC, tenant="acme")
    assert queue.get(job.id, tenant="acme") is not None
    # Another tenant's job does not exist, rather than being forbidden.
    assert queue.get(job.id, tenant="rival") is None
    assert queue.get("job-nonexistent") is None


def test_list_jobs_filters_by_tenant_and_state(queue):
    a = queue.submit(SPEC, tenant="acme")
    queue.submit(SPEC, tenant="rival")
    queue.lease("w1", 30.0)  # one of them starts running
    acme = queue.list_jobs(tenant="acme")
    assert [job.tenant for job in acme] == ["acme"]
    running = queue.list_jobs(state="running")
    assert len(running) == 1
    assert a.id in {job.id for job in queue.list_jobs()}


# ----------------------------------------------------------------------
# Leasing order and mutual exclusion
# ----------------------------------------------------------------------
def test_lease_priority_then_fifo(queue, clock):
    low1 = queue.submit(SPEC, priority=0)
    clock.advance(1)
    high = queue.submit(SPEC, priority=5)
    clock.advance(1)
    low2 = queue.submit(SPEC, priority=0)
    order = [queue.lease("w", 30.0).id for _ in range(3)]
    assert order == [high.id, low1.id, low2.id]


def test_lease_is_exclusive_until_expiry(queue, clock):
    job = queue.submit(SPEC)
    leased = queue.lease("w1", 30.0)
    assert leased.id == job.id
    assert leased.state == "running"
    assert leased.attempts == 1
    assert leased.lease_owner == "w1"
    # Nothing else to lease while the lease is live.
    assert queue.lease("w2", 30.0) is None
    clock.advance(31)
    release = queue.lease("w2", 30.0)
    assert release.id == job.id
    assert release.attempts == 2
    assert release.lease_owner == "w2"


def test_heartbeat_extends_lease(queue, clock):
    job = queue.submit(SPEC)
    queue.lease("w1", 10.0)
    clock.advance(8)
    assert queue.heartbeat(job.id, "w1", 10.0)
    clock.advance(8)  # would be past the original expiry
    assert queue.lease("w2", 10.0) is None
    assert not queue.heartbeat(job.id, "intruder", 10.0)


def test_stale_owner_completion_is_discarded(queue, clock):
    """A SIGKILLed-then-resurrected worker cannot clobber the re-run."""
    job = queue.submit(SPEC)
    queue.lease("w1", 5.0)
    clock.advance(6)  # w1's lease expires (it stopped heartbeating)
    queue.lease("w2", 30.0)
    assert not queue.complete(job.id, "w1", {"ok": True})  # zombie
    assert queue.get(job.id).state == "running"
    assert queue.complete(job.id, "w2", {"ok": True})
    done = queue.get(job.id)
    assert done.state == "done"
    assert done.summary == {"ok": True}
    assert done.lease_owner is None


def test_fail_records_error(queue):
    job = queue.submit(SPEC)
    queue.lease("w1", 30.0)
    assert queue.fail(job.id, "w1", "2 task(s) failed: boom")
    failed = queue.get(job.id)
    assert failed.state == "failed"
    assert "boom" in failed.error
    assert failed.terminal


def test_poison_job_fails_after_max_attempts(queue, clock):
    job = queue.submit(SPEC, max_attempts=2)
    for _ in range(2):
        queue.lease("w", 5.0)
        clock.advance(6)  # worker "dies" every time
    # Third lease attempt gives up on the poison job instead of
    # handing it out forever.
    assert queue.lease("w", 5.0) is None
    dead = queue.get(job.id)
    assert dead.state == "failed"
    assert "gave up after 2" in dead.error


# ----------------------------------------------------------------------
# Cancellation
# ----------------------------------------------------------------------
def test_cancel_queued_job(queue):
    job = queue.submit(SPEC)
    cancelled = queue.cancel(job.id)
    assert cancelled.state == "cancelled"
    assert queue.lease("w", 30.0) is None


def test_cancel_running_job_discards_worker_result(queue):
    job = queue.submit(SPEC)
    queue.lease("w1", 30.0)
    assert queue.cancel(job.id).state == "cancelled"
    # The worker finishes later; its completion must not resurrect it.
    assert not queue.complete(job.id, "w1", {"ok": True})
    assert queue.get(job.id).state == "cancelled"


def test_cancel_terminal_job_is_noop(queue):
    job = queue.submit(SPEC)
    queue.lease("w1", 30.0)
    queue.complete(job.id, "w1", {})
    assert queue.cancel(job.id).state == "done"


# ----------------------------------------------------------------------
# Durability
# ----------------------------------------------------------------------
def test_queue_persists_across_reopen(tmp_path, clock):
    path = tmp_path / QUEUE_FILENAME
    with JobQueue(path, clock=clock) as first:
        job = first.submit(SPEC, tenant="acme", campaign_id="c9")
    with JobQueue(path, clock=clock) as second:
        restored = second.get(job.id)
        assert restored.state == "queued"
        assert restored.tenant == "acme"
        assert restored.campaign_id == "c9"
        assert second.lease("w", 30.0).id == job.id


def test_a_spool_with_the_old_live_url_column_still_runs_jobs(tmp_path, clock):
    """Spools made before the ``live_url`` column was dropped keep it,
    unused: every write names its columns and rows are read by name."""
    path = tmp_path / QUEUE_FILENAME
    with JobQueue(path, clock=clock) as old:
        old._db.execute("ALTER TABLE jobs ADD COLUMN live_url TEXT")
        old._db.commit()
    with JobQueue(path, clock=clock) as reopened:
        job = reopened.submit(SPEC)
        assert reopened.lease("w", 30.0).id == job.id
        assert reopened.complete(job.id, "w", {"ok": True})
        assert reopened.get(job.id).summary == {"ok": True}
        assert reopened.recover() == 0


def test_recover_requeues_expired_running_jobs(tmp_path, clock):
    path = tmp_path / QUEUE_FILENAME
    with JobQueue(path, clock=clock) as q:
        job = q.submit(SPEC)
        clock.advance(1)
        live = q.submit(SPEC)
        q.lease("w1", 5.0)
        q.lease("w2", 500.0)  # still validly leased
        clock.advance(6)
        assert q.recover() == 1
        assert q.get(job.id).state == "queued"
        assert q.get(job.id).lease_owner is None
        assert q.get(live.id).state == "running"


def test_queue_file_is_created_with_parents(tmp_path, clock):
    nested = tmp_path / "deep" / "spool" / QUEUE_FILENAME
    with JobQueue(nested, clock=clock) as q:
        q.submit(SPEC)
    assert os.path.exists(nested)
