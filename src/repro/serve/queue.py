"""Durable job queue: SQLite-backed, lease-based, crash-safe.

The control plane and its worker fleet share one ``queue.sqlite3``
file.  Durability and fault tolerance come from two properties:

* **WAL journaling** — submissions and state transitions survive a
  daemon crash; readers (API handler threads, other worker processes)
  never block a writer.
* **Leases with heartbeat expiry** — a worker does not *own* a job, it
  *leases* it for ``lease_s`` seconds and extends the lease from a
  heartbeat thread while the campaign runs.  A SIGKILLed or wedged
  worker simply stops heartbeating; once the lease expires the job is
  leasable again and another worker finishes it.  Because campaign
  tasks are deterministic and the artifact store is content-addressed,
  the rerun converges on byte-identical artifacts.

State machine::

    queued --lease--> running --complete--> done
      ^                  |  |---fail-----> failed
      |                  |  |---cancel---> cancelled
      +--lease expired---+        (queued jobs cancel directly)

A job whose lease expires ``max_attempts`` times is marked ``failed``
rather than looping forever (poison-job protection).
"""

from __future__ import annotations

import dataclasses
import json
import os
import sqlite3
import threading
import time
import typing
import uuid

QUEUE_FILENAME = "queue.sqlite3"

#: Job states. ``queued`` and expired-``running`` are leasable.
STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id               TEXT PRIMARY KEY,
    tenant           TEXT NOT NULL,
    spec             TEXT NOT NULL,
    campaign_id      TEXT NOT NULL,
    n_tasks          INTEGER NOT NULL,
    priority         INTEGER NOT NULL DEFAULT 0,
    state            TEXT NOT NULL DEFAULT 'queued',
    attempts         INTEGER NOT NULL DEFAULT 0,
    max_attempts     INTEGER NOT NULL DEFAULT 3,
    submitted_at     REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL,
    lease_owner      TEXT,
    lease_expires_at REAL,
    live_url         TEXT,
    summary          TEXT,
    error            TEXT
);
CREATE INDEX IF NOT EXISTS jobs_by_state
    ON jobs (state, priority DESC, submitted_at);
"""


def new_job_id() -> str:
    return "job-" + uuid.uuid4().hex[:12]


@dataclasses.dataclass
class Job:
    """One queued campaign, as the queue knows it."""

    id: str
    tenant: str
    spec: dict
    campaign_id: str
    n_tasks: int
    priority: int
    state: str
    attempts: int
    max_attempts: int
    submitted_at: float
    started_at: typing.Optional[float] = None
    finished_at: typing.Optional[float] = None
    lease_owner: typing.Optional[str] = None
    lease_expires_at: typing.Optional[float] = None
    live_url: typing.Optional[str] = None
    summary: typing.Optional[dict] = None
    error: typing.Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def as_dict(self) -> dict:
        view = dataclasses.asdict(self)
        view["terminal"] = self.terminal
        return view

    @classmethod
    def _from_row(cls, row: sqlite3.Row) -> "Job":
        return cls(
            id=row["id"],
            tenant=row["tenant"],
            spec=json.loads(row["spec"]),
            campaign_id=row["campaign_id"],
            n_tasks=row["n_tasks"],
            priority=row["priority"],
            state=row["state"],
            attempts=row["attempts"],
            max_attempts=row["max_attempts"],
            submitted_at=row["submitted_at"],
            started_at=row["started_at"],
            finished_at=row["finished_at"],
            lease_owner=row["lease_owner"],
            lease_expires_at=row["lease_expires_at"],
            live_url=row["live_url"],
            summary=json.loads(row["summary"]) if row["summary"] else None,
            error=row["error"],
        )


class JobQueue:
    """Thread-safe handle on the shared SQLite queue.

    Each process opens its own :class:`JobQueue` on the same path;
    within a process one instance may be shared by many threads (an
    internal lock serializes its connection).  Cross-process atomicity
    of the lease transition comes from ``BEGIN IMMEDIATE``.
    """

    def __init__(
        self,
        path: typing.Union[str, os.PathLike],
        max_attempts: int = 3,
        clock: typing.Callable[[], float] = time.time,
    ) -> None:
        self.path = os.fspath(path)
        self.max_attempts = max_attempts
        self._clock = clock
        self._lock = threading.RLock()
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        self._db = sqlite3.connect(
            self.path, timeout=30.0, check_same_thread=False
        )
        self._db.row_factory = sqlite3.Row
        with self._lock:
            self._db.execute("PRAGMA journal_mode=WAL")
            self._db.execute("PRAGMA synchronous=NORMAL")
            self._db.execute("PRAGMA busy_timeout=30000")
            self._db.executescript(_SCHEMA)
            self._db.commit()

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: typing.Mapping[str, typing.Any],
        *,
        tenant: str = "public",
        campaign_id: str = "",
        n_tasks: int = 0,
        priority: int = 0,
        max_attempts: typing.Optional[int] = None,
        job_id: typing.Optional[str] = None,
    ) -> Job:
        """Enqueue a (already validated) campaign spec; returns the job.

        ``job_id`` lets a caller write the job's files before its row
        exists; by default the queue mints one (:func:`new_job_id`).
        """
        job_id = job_id or new_job_id()
        now = self._clock()
        with self._lock:
            self._db.execute(
                "INSERT INTO jobs (id, tenant, spec, campaign_id, n_tasks,"
                " priority, state, attempts, max_attempts, submitted_at)"
                " VALUES (?, ?, ?, ?, ?, ?, 'queued', 0, ?, ?)",
                (
                    job_id,
                    tenant,
                    json.dumps(dict(spec), sort_keys=True),
                    campaign_id,
                    n_tasks,
                    priority,
                    max_attempts if max_attempts is not None else self.max_attempts,
                    now,
                ),
            )
            self._db.commit()
        return typing.cast(Job, self.get(job_id))

    def cancel(self, job_id: str, tenant: typing.Optional[str] = None) -> typing.Optional[Job]:
        """Cancel a job.  Queued jobs cancel immediately; a running
        job is marked cancelled and its worker's eventual completion
        is discarded (the lease guard refuses the state transition).
        Terminal jobs are returned unchanged."""
        with self._lock:
            job = self.get(job_id, tenant=tenant)
            if job is None or job.terminal:
                return job
            self._db.execute(
                "UPDATE jobs SET state='cancelled', finished_at=?,"
                " lease_owner=NULL, lease_expires_at=NULL, live_url=NULL"
                " WHERE id=? AND state IN ('queued', 'running')",
                (self._clock(), job_id),
            )
            self._db.commit()
            return self.get(job_id, tenant=tenant)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def lease(self, owner: str, lease_s: float) -> typing.Optional[Job]:
        """Atomically claim the next runnable job, or ``None``.

        Runnable means ``queued``, or ``running`` with an expired lease
        (its worker died).  Highest priority first, then FIFO.  A job
        that has already burned ``max_attempts`` leases is failed here
        instead of being handed out again.
        """
        now = self._clock()
        with self._lock:
            while True:
                self._db.execute("BEGIN IMMEDIATE")
                try:
                    row = self._db.execute(
                        "SELECT * FROM jobs WHERE state='queued'"
                        " OR (state='running' AND lease_expires_at < ?)"
                        " ORDER BY priority DESC, submitted_at, id LIMIT 1",
                        (now,),
                    ).fetchone()
                    if row is None:
                        self._db.commit()
                        return None
                    if row["attempts"] >= row["max_attempts"]:
                        self._db.execute(
                            "UPDATE jobs SET state='failed', finished_at=?,"
                            " lease_owner=NULL, lease_expires_at=NULL,"
                            " live_url=NULL, error=? WHERE id=?",
                            (
                                now,
                                f"gave up after {row['attempts']} expired or "
                                f"failed lease attempts",
                                row["id"],
                            ),
                        )
                        self._db.commit()
                        continue  # look for the next candidate
                    self._db.execute(
                        "UPDATE jobs SET state='running', attempts=attempts+1,"
                        " lease_owner=?, lease_expires_at=?,"
                        " started_at=COALESCE(started_at, ?), live_url=NULL"
                        " WHERE id=?",
                        (owner, now + lease_s, now, row["id"]),
                    )
                    self._db.commit()
                except BaseException:
                    self._db.rollback()
                    raise
                return self.get(row["id"])

    def heartbeat(self, job_id: str, owner: str, lease_s: float) -> bool:
        """Extend the lease; False when it was lost (expired and
        re-leased elsewhere, or the job was cancelled)."""
        with self._lock:
            cursor = self._db.execute(
                "UPDATE jobs SET lease_expires_at=?"
                " WHERE id=? AND lease_owner=? AND state='running'",
                (self._clock() + lease_s, job_id, owner),
            )
            self._db.commit()
            return cursor.rowcount == 1

    def set_live_url(self, job_id: str, owner: str, url: typing.Optional[str]) -> bool:
        """Publish the job's live observability endpoint (or clear it)."""
        with self._lock:
            cursor = self._db.execute(
                "UPDATE jobs SET live_url=?"
                " WHERE id=? AND lease_owner=? AND state='running'",
                (url, job_id, owner),
            )
            self._db.commit()
            return cursor.rowcount == 1

    def complete(self, job_id: str, owner: str, summary: typing.Mapping) -> bool:
        """Mark a leased job done.  Guarded by the lease: a zombie
        worker whose lease was re-assigned (or whose job was
        cancelled) gets ``False`` and its result is discarded."""
        return self._finish(job_id, owner, "done", summary=summary)

    def fail(self, job_id: str, owner: str, error: str,
             summary: typing.Optional[typing.Mapping] = None) -> bool:
        """Mark a leased job failed (terminal — lease expiry, not
        :meth:`fail`, is the retry path)."""
        return self._finish(job_id, owner, "failed", summary=summary, error=error)

    def _finish(
        self,
        job_id: str,
        owner: str,
        state: str,
        summary: typing.Optional[typing.Mapping] = None,
        error: typing.Optional[str] = None,
    ) -> bool:
        with self._lock:
            cursor = self._db.execute(
                "UPDATE jobs SET state=?, finished_at=?, summary=?, error=?,"
                " lease_owner=NULL, lease_expires_at=NULL, live_url=NULL"
                " WHERE id=? AND lease_owner=? AND state='running'",
                (
                    state,
                    self._clock(),
                    json.dumps(dict(summary), sort_keys=True) if summary else None,
                    error,
                    job_id,
                    owner,
                ),
            )
            self._db.commit()
            return cursor.rowcount == 1

    # ------------------------------------------------------------------
    # Introspection / recovery
    # ------------------------------------------------------------------
    def get(self, job_id: str, tenant: typing.Optional[str] = None) -> typing.Optional[Job]:
        with self._lock:
            row = self._db.execute(
                "SELECT * FROM jobs WHERE id=?", (job_id,)
            ).fetchone()
        if row is None:
            return None
        job = Job._from_row(row)
        if tenant is not None and job.tenant != tenant:
            return None  # namespace isolation: other tenants' jobs do not exist
        return job

    def list_jobs(
        self,
        tenant: typing.Optional[str] = None,
        state: typing.Optional[str] = None,
        limit: int = 200,
    ) -> typing.List[Job]:
        query = "SELECT * FROM jobs"
        clauses, params = [], []
        if tenant is not None:
            clauses.append("tenant=?")
            params.append(tenant)
        if state is not None:
            clauses.append("state=?")
            params.append(state)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY submitted_at DESC, id LIMIT ?"
        params.append(limit)
        with self._lock:
            rows = self._db.execute(query, params).fetchall()
        return [Job._from_row(row) for row in rows]

    def counts(self) -> typing.Dict[str, int]:
        with self._lock:
            rows = self._db.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            ).fetchall()
        counts = {state: 0 for state in STATES}
        counts.update({row["state"]: row["n"] for row in rows})
        return counts

    def recover(self) -> int:
        """Requeue every expired running job (daemon-restart path).

        :meth:`lease` would reclaim them lazily anyway; doing it
        eagerly at startup makes ``/jobs`` reflect reality immediately.
        Returns the number of jobs requeued.
        """
        with self._lock:
            cursor = self._db.execute(
                "UPDATE jobs SET state='queued', lease_owner=NULL,"
                " lease_expires_at=NULL, live_url=NULL"
                " WHERE state='running' AND lease_expires_at < ?",
                (self._clock(),),
            )
            self._db.commit()
            return cursor.rowcount

    def close(self) -> None:
        with self._lock:
            self._db.close()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
