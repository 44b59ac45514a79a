"""Worker fleet: lease jobs, run campaigns, persist artifacts.

A :class:`ServeWorker` is the body between the durable queue and the
existing campaign executor: it leases one job at a time, rebuilds the
plan from the stored spec, runs it through
:func:`repro.runner.run_campaign` against the spool's shared
content-addressed cache (so identical sub-campaigns dedupe across jobs
and tenants), writes the artifact set, and reports the terminal state
back to the queue.

Workers are location-transparent: the serve daemon runs a few as
threads, and ``python -m repro worker --spool DIR`` joins the same
fleet from another process (or machine sharing the spool) — the lease
protocol, not process topology, provides mutual exclusion.  The daemon
wakes its own idle workers on each submit; a worker in another process
shares nothing but the spool, so it finds work by polling every
``poll_s``.  While a campaign runs, a heartbeat thread extends the job
lease; a worker that dies simply stops heartbeating and the job is
re-leased elsewhere.

Every artifact a job produces is stamped with correlation ids: the
plan-derived ``campaign_id`` plus the queue's ``job_id`` ride in every
telemetry event (and therefore every live SSE frame), in
``results.json``/``manifest.json``/``summary.json``, and in each
per-task metrics dump.
"""

from __future__ import annotations

import contextlib
import os
import threading
import typing

from ..runner import TelemetryWriter, run_campaign
from .queue import QUEUE_FILENAME, Job, JobQueue
from .schema import SpecError, normalize_spec, plan_from_spec
from .store import ArtifactStore

#: One live observability plane per process: run_campaign feeds the
#: process-global active server, so concurrent worker threads take
#: turns — the holder's job gets /live/* proxying, the others still
#: run (and still write artifacts) without a live plane.
_LIVE_SLOT = threading.Lock()


class ServeWorker:
    """Leases and executes jobs from a spool directory's queue."""

    def __init__(
        self,
        spool: typing.Union[str, os.PathLike],
        worker_id: typing.Optional[str] = None,
        lease_s: float = 30.0,
        heartbeat_s: typing.Optional[float] = None,
        poll_s: float = 0.25,
        live: bool = False,
        queue: typing.Optional[JobQueue] = None,
        store: typing.Optional[ArtifactStore] = None,
        max_cache_bytes: typing.Optional[int] = None,
    ) -> None:
        self.spool = os.fspath(spool)
        self.worker_id = worker_id or f"worker-{os.getpid()}-{id(self):x}"
        self.lease_s = lease_s
        self.heartbeat_s = heartbeat_s or max(lease_s / 3.0, 0.05)
        self.poll_s = poll_s
        self.live = live
        self.queue = queue or JobQueue(os.path.join(self.spool, QUEUE_FILENAME))
        self.store = store or ArtifactStore(
            self.spool, max_cache_bytes=max_cache_bytes
        )
        self.jobs_run = 0
        self._wake = threading.Event()

    # ------------------------------------------------------------------
    # Loop
    # ------------------------------------------------------------------
    def run_once(self) -> typing.Optional[Job]:
        """Lease and run at most one job; the terminal job or ``None``."""
        job = self.queue.lease(self.worker_id, self.lease_s)
        if job is None:
            return None
        self._run_job(job)
        self.jobs_run += 1
        return self.queue.get(job.id)

    def wake(self) -> None:
        """End this worker's idle wait now: a job was submitted, or
        ``stop`` was set."""
        self._wake.set()

    def run_forever(
        self,
        stop: typing.Optional[threading.Event] = None,
        max_jobs: typing.Optional[int] = None,
    ) -> int:
        """Lease and run jobs until ``stop`` is set (or ``max_jobs`` done).

        An idle worker waits for :meth:`wake`, or at most ``poll_s``:
        the timeout is how it finds jobs that no wake announces (those
        submitted by another process, and those whose lease expired).
        Whoever sets ``stop`` calls :meth:`wake` as well.
        """
        done = 0
        while (stop is None or not stop.is_set()) and (
            max_jobs is None or done < max_jobs
        ):
            # Clear before leasing, so a wake() that lands after an
            # empty lease() still ends the wait below at once.
            self._wake.clear()
            if self.run_once() is None:
                self._wake.wait(self.poll_s)
                continue
            done += 1
        return done

    # ------------------------------------------------------------------
    # One job
    # ------------------------------------------------------------------
    def _run_job(self, job: Job) -> None:
        try:
            spec = normalize_spec(job.spec)
            plan = plan_from_spec(spec)
        except SpecError as exc:
            # Validation normally happens at submission; this is the
            # out-of-process-worker path where registries may differ.
            self.queue.fail(job.id, self.worker_id, f"invalid spec: {exc}")
            return

        stop_heartbeat = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(job.id, stop_heartbeat),
            name=f"repro-serve-heartbeat-{job.id}",
            daemon=True,
        )
        heartbeat.start()
        try:
            telemetry = TelemetryWriter(
                self.store.telemetry_path(job.tenant, job.id),
                context={
                    "campaign_id": plan.campaign_id,
                    "job_id": job.id,
                    "worker": self.worker_id,
                },
            )
            metrics_dir = (
                self.store.metrics_dir(job.tenant, job.id)
                if spec["collect_obs"]
                else None
            )
            with contextlib.ExitStack() as stack:
                stack.enter_context(telemetry)
                self._maybe_attach_live(stack, job)
                campaign = run_campaign(
                    plan,
                    parallel=spec["parallel"],
                    max_workers=spec["max_workers"],
                    timeout_s=spec["timeout_s"],
                    max_retries=spec["max_retries"],
                    cache_dir=self.store.cas_dir,
                    use_cache=True,
                    telemetry=telemetry,
                    metrics_dir=metrics_dir,
                )
            artifacts = self.store.write_results(job.tenant, job.id, plan, campaign)
            summary = campaign.summary.as_dict()
            summary["campaign_id"] = plan.campaign_id
            summary["artifacts"] = artifacts
            if campaign.ok:
                self.queue.complete(job.id, self.worker_id, summary)
            else:
                reasons = "; ".join(
                    f"{failure.spec.task_id}: {failure.error}"
                    for failure in campaign.failures[:5]
                )
                self.queue.fail(
                    job.id,
                    self.worker_id,
                    f"{len(campaign.failures)} task(s) failed: {reasons}",
                    summary=summary,
                )
        except Exception as exc:  # noqa: BLE001 - job code is arbitrary
            self.queue.fail(
                job.id, self.worker_id, f"{type(exc).__name__}: {exc}"
            )
        finally:
            stop_heartbeat.set()
            heartbeat.join(timeout=2.0)

    def _heartbeat_loop(self, job_id: str, stop: threading.Event) -> None:
        while not stop.wait(self.heartbeat_s):
            if not self.queue.heartbeat(job_id, self.worker_id, self.lease_s):
                # Lease lost (expired and re-assigned, or cancelled).
                # The campaign cannot be aborted mid-flight, but the
                # queue's lease guard will discard our completion.
                return

    def _maybe_attach_live(self, stack: contextlib.ExitStack, job: Job) -> None:
        """Attach a per-job live observability plane when available."""
        if not self.live or not _LIVE_SLOT.acquire(blocking=False):
            return
        stack.callback(_LIVE_SLOT.release)
        try:
            from ..obs.live import live_server

            server = stack.enter_context(live_server(port=0))
        except OSError:  # pragma: no cover - no loopback available
            return
        self.queue.set_live_url(job.id, self.worker_id, server.url)


def worker_main(
    spool: str,
    max_jobs: typing.Optional[int] = None,
    lease_s: float = 30.0,
    live: bool = False,
    poll_s: float = 0.25,
) -> int:
    """Blocking entry point for ``python -m repro worker``."""
    worker = ServeWorker(spool, lease_s=lease_s, live=live, poll_s=poll_s)
    try:
        return worker.run_forever(max_jobs=max_jobs)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return worker.jobs_run
