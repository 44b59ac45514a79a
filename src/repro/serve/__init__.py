"""repro.serve — simulation-as-a-service control plane.

ROADMAP item 2: the batch campaign engine promoted into a long-running
service.  A spool directory holds the whole deployment's state:

* :mod:`.queue` — durable SQLite job queue (WAL, priorities, leases
  with heartbeat expiry, crash-safe recovery);
* :mod:`.worker` — the fleet body: lease a job, run it through
  :func:`repro.runner.run_campaign`, persist artifacts, report back;
* :mod:`.store` — tenant-namespaced artifacts over the shared
  content-addressed result cache, so identical sub-campaigns dedupe
  across jobs and tenants;
* :mod:`.api` / :mod:`.client` — the stdlib REST control plane and a
  matching client;
* :mod:`.schema` — the campaign-spec JSON vocabulary (a direct mirror
  of :meth:`repro.runner.plan.CampaignPlan.from_matrix`).

Quickstart::

    from repro.serve import ServeDaemon, ServeClient

    with ServeDaemon("spool", n_workers=2) as daemon:
        client = ServeClient(daemon.url)
        job = client.submit({"experiments": ["throughput"], "seeds": 4})
        done = client.wait(job["id"])
        print(done["summary"]["cache_hits"], done["artifacts"])

or from a shell: ``python -m repro serve`` / ``submit`` / ``status`` /
``artifacts`` / ``worker`` (see docs/SERVE.md).
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "ServeDaemon": ".api",
    "ServeApiError": ".client",
    "ServeClient": ".client",
    "Job": ".queue",
    "JobQueue": ".queue",
    "SpecError": ".schema",
    "normalize_spec": ".schema",
    "plan_from_spec": ".schema",
    "validate_spec": ".schema",
    "ArtifactStore": ".store",
    "ServeWorker": ".worker",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
