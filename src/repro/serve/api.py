"""REST control plane: simulation-as-a-service over the job queue.

``ServeDaemon`` is the long-running face of the campaign engine — the
ROADMAP's "serving story": a stdlib HTTP server (the live plane's
:class:`~repro.obs.live.HTTPServerThread`, no web framework) in front
of the durable queue, an in-process worker fleet, and the
deduplicating artifact store.  Endpoints (all JSON unless noted)::

    GET  /healthz                        liveness + queue counts
    GET  /metrics                        Prometheus rollup folding every
                                         finished job's campaign
                                         registry (text exposition)
    GET  /v1/experiments                 the experiment registry
    POST /v1/jobs                        submit a campaign spec
    GET  /v1/jobs[?state=&limit=]        list this tenant's jobs
    GET  /v1/jobs/<id>                   inspect one job
    POST /v1/jobs/<id>/cancel            cancel it
    GET  /v1/jobs/<id>/artifacts         list artifact names + CAS map
    GET  /v1/jobs/<id>/artifacts/<name>  fetch artifact bytes
    GET  /v1/jobs/<id>/cas/<digest>      fetch a referenced CAS payload
    GET  /v1/jobs/<id>/live/metrics      the live observability plane
    GET  /v1/jobs/<id>/live/progress     of a job running on one of the
    GET  /v1/jobs/<id>/live/events       daemon's workers (SSE; ?limit=)

Authentication is token-per-tenant: pass ``tokens={"secret": "acme"}``
(or repeatable ``--token acme=secret`` on the CLI) and requests must
carry ``Authorization: Bearer secret`` or ``X-Repro-Token: secret``.
With no tokens configured every request maps to the ``public`` tenant.
Tenants are namespaces: jobs and artifacts belonging to another tenant
answer 404, not 403 — their existence is not disclosed.
"""

from __future__ import annotations

import json
import os
import threading
import typing
from http.server import BaseHTTPRequestHandler
from urllib.parse import parse_qs, unquote, urlparse

from ..measure.experiment import registry
from ..obs.live import LIVE_ENDPOINTS, HTTPServerThread, respond
from .queue import QUEUE_FILENAME, Job, JobQueue, new_job_id
from .schema import SpecError, normalize_spec, plan_from_spec
from .store import ArtifactStore
from .worker import ServeWorker

DEFAULT_TENANT = "public"

#: Longest request body the API will read (campaign specs are small).
MAX_BODY_BYTES = 1 << 20


class ServeDaemon:
    """Queue + store + worker fleet + HTTP API, one process."""

    def __init__(
        self,
        spool: typing.Union[str, os.PathLike],
        host: str = "127.0.0.1",
        port: int = 0,
        n_workers: int = 1,
        tokens: typing.Optional[typing.Mapping[str, str]] = None,
        lease_s: float = 30.0,
        max_cache_bytes: typing.Optional[int] = None,
    ) -> None:
        self.spool = os.fspath(spool)
        self.tokens = dict(tokens or {})
        self.queue = JobQueue(os.path.join(self.spool, QUEUE_FILENAME))
        self.store = ArtifactStore(self.spool, max_cache_bytes=max_cache_bytes)
        self.recovered_jobs = self.queue.recover()  # crash-safe restart
        self._stop = threading.Event()
        self._workers = [
            ServeWorker(
                self.spool,
                worker_id=f"serve-{os.getpid()}-{index}",
                lease_s=lease_s,
                live=True,
                queue=self.queue,
                store=self.store,
            )
            # n_workers=0 is a valid deployment: an API-only daemon
            # whose fleet joins from other processes (`repro worker`).
            for index in range(max(0, n_workers))
        ]
        self._worker_threads: typing.List[threading.Thread] = []
        self._httpd = HTTPServerThread(
            (host, port), _make_handler(self), "repro-serve-http"
        )
        self.host = host
        self.port = self._httpd.server_address[1]
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServeDaemon":
        if self._started:
            return self
        # Build the experiment registry (it imports every experiment's
        # module) before /healthz answers, not inside the first submit.
        registry()
        self._started = True
        self._httpd.start()
        for worker in self._workers:
            thread = threading.Thread(
                target=worker.run_forever,
                kwargs={"stop": self._stop},
                name=f"repro-serve-{worker.worker_id}",
                daemon=True,
            )
            thread.start()
            self._worker_threads.append(thread)
        return self

    def close(self) -> None:
        self._stop.set()
        for worker in self._workers:
            worker.wake()
        self._httpd.close()
        for thread in self._worker_threads:
            thread.join(timeout=5.0)
        self.queue.close()

    def __enter__(self) -> "ServeDaemon":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Operations (HTTP-independent, also used directly by tests)
    # ------------------------------------------------------------------
    def tenant_for_token(self, token: typing.Optional[str]) -> typing.Optional[str]:
        """Tenant for a request token; None means unauthorized."""
        if not self.tokens:
            return DEFAULT_TENANT
        if token is None:
            return None
        return self.tokens.get(token)

    def submit(self, spec: typing.Mapping, tenant: str) -> Job:
        """Validate, plan, and enqueue one campaign spec, then wake the
        idle in-process workers to lease it."""
        normalized = normalize_spec(spec)  # raises SpecError with details
        plan = plan_from_spec(normalized)
        # spec.json goes to disk before the row exists, so no worker in
        # any process can lease a job whose spec is not written yet.
        job_id = new_job_id()
        self.store.write_spec(tenant, job_id, normalized)
        job = self.queue.submit(
            normalized,
            tenant=tenant,
            campaign_id=plan.campaign_id,
            n_tasks=len(plan),
            priority=normalized["priority"],
            job_id=job_id,
        )
        for worker in self._workers:
            worker.wake()
        return job

    def job_view(self, job: Job) -> dict:
        """The API's JSON shape for one job."""
        view = job.as_dict()
        view["live"] = self.live_plane(job.id) is not None
        if job.terminal:
            view["artifacts"] = self.store.list_artifacts(job.tenant, job.id)
        return view

    def live_plane(self, job_id: str):
        """The live plane of ``job_id`` while one of this daemon's
        workers runs it, else ``None``."""
        for worker in self._workers:
            plane = worker.live_plane(job_id)
            if plane is not None:
                return plane
        return None

    def fleet_metrics(self, tenant: str) -> typing.Tuple[str, int]:
        """Cross-job Prometheus rollup for one tenant's finished jobs.

        Folds every job's ``metrics/campaign_registry.json`` artifact
        (written by workers running with ``collect_obs``) through a
        :class:`~repro.obs.fleet.FleetAggregator`.  The fold is
        associative/commutative and jobs are visited in id order, so
        the text is deterministic for a given job set regardless of
        which workers ran what.  Returns ``(prometheus_text, n_jobs)``
        where ``n_jobs`` counts jobs that contributed a registry.
        """
        from ..obs.export import to_prometheus
        from ..obs.fleet import REGISTRY_FILENAME, FleetAggregator

        aggregator = FleetAggregator()
        n_jobs = 0
        jobs = self.queue.list_jobs(tenant=tenant, limit=-1)  # -1: no cap
        for job in sorted(jobs, key=lambda j: j.id):
            blob = self.store.read_artifact(
                job.tenant, job.id, os.path.join("metrics", REGISTRY_FILENAME)
            )
            if blob is None:
                continue
            try:
                dump = json.loads(blob.decode())
            except (ValueError, UnicodeDecodeError):
                continue  # partially-written artifact; skip, don't 500
            aggregator.add_dump(dump)
            n_jobs += 1
        text = to_prometheus(aggregator.merged_registry())
        meta = (
            "# TYPE repro_serve_jobs_aggregated gauge\n"
            f"repro_serve_jobs_aggregated {n_jobs}\n"
        )
        return text + meta, n_jobs


def _make_handler(daemon: ServeDaemon):
    class _Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Headers and body go out in separate writes; without
        # TCP_NODELAY, Nagle holds the body until the client's delayed
        # ACK, stalling every keep-alive request by ~40 ms.
        disable_nagle_algorithm = True

        def log_message(self, *args) -> None:  # pragma: no cover - quiet
            pass

        # -- plumbing --------------------------------------------------
        def _send_json(self, payload: dict, status: int = 200) -> None:
            body = (json.dumps(payload, sort_keys=True) + "\n").encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_bytes(self, body: bytes, content_type: str) -> None:
            self.send_response(200)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _error(self, status: int, message: str, **extra) -> None:
            payload = {"error": message}
            payload.update(extra)
            self._send_json(payload, status=status)

        def _tenant(self) -> typing.Optional[str]:
            token = self.headers.get("X-Repro-Token")
            if token is None:
                auth = self.headers.get("Authorization", "")
                if auth.startswith("Bearer "):
                    token = auth[len("Bearer "):].strip()
            tenant = daemon.tenant_for_token(token)
            if tenant is None:
                self._error(401, "missing or unknown API token")
            return tenant

        def _read_body(self) -> typing.Optional[dict]:
            try:
                length = int(self.headers.get("Content-Length", 0))
            except ValueError:
                length = 0
            if length <= 0 or length > MAX_BODY_BYTES:
                self._error(400, "request body required (JSON campaign spec)")
                return None
            raw = self.rfile.read(length)
            try:
                body = json.loads(raw.decode())
            except (ValueError, UnicodeDecodeError):
                self._error(400, "request body is not valid JSON")
                return None
            return body

        def _job_or_404(self, tenant: str, job_id: str) -> typing.Optional[Job]:
            job = daemon.queue.get(job_id, tenant=tenant)
            if job is None:
                self._error(404, f"no job {job_id!r}")
            return job

        # -- routing ---------------------------------------------------
        def do_GET(self) -> None:  # noqa: N802 - http.server API
            try:
                self._route("GET")
            except (BrokenPipeError, ConnectionResetError):  # client left
                pass

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            try:
                self._route("POST")
            except (BrokenPipeError, ConnectionResetError):
                pass

        def _route(self, method: str) -> None:
            parsed = urlparse(self.path)
            # Artifact names may hold URL-significant characters
            # (metrics dumps embed '#'); clients percent-encode them.
            parts = [unquote(p) for p in parsed.path.split("/") if p]
            query = parse_qs(parsed.query)
            if method == "GET" and parts in ([], ["healthz"]):
                self._send_json(
                    {
                        "status": "ok",
                        "jobs": daemon.queue.counts(),
                        "recovered_jobs": daemon.recovered_jobs,
                    }
                )
                return
            tenant = self._tenant()
            if tenant is None:
                return
            if method == "GET" and parts == ["metrics"]:
                text, _ = daemon.fleet_metrics(tenant)
                self._send_bytes(
                    text.encode(), "text/plain; version=0.0.4"
                )
                return
            if not parts or parts[0] != "v1":
                self._error(404, "unknown route (API lives under /v1)")
                return
            rest = parts[1:]
            if method == "GET" and rest == ["experiments"]:
                from ..measure.experiment import list_experiments

                self._send_json(
                    {
                        "experiments": [
                            {
                                "name": spec.name,
                                "artifact": spec.artifact,
                                "description": spec.description,
                            }
                            for spec in list_experiments()
                        ]
                    }
                )
            elif rest == ["jobs"] and method == "POST":
                self._submit(tenant)
            elif rest == ["jobs"] and method == "GET":
                self._list_jobs(tenant, query)
            elif len(rest) == 2 and rest[0] == "jobs" and method == "GET":
                job = self._job_or_404(tenant, rest[1])
                if job is not None:
                    self._send_json(daemon.job_view(job))
            elif (
                len(rest) == 3
                and rest[0] == "jobs"
                and rest[2] == "cancel"
                and method == "POST"
            ):
                job = self._job_or_404(tenant, rest[1])
                if job is not None:
                    cancelled = daemon.queue.cancel(job.id, tenant=tenant)
                    self._send_json(daemon.job_view(cancelled or job))
            elif (
                len(rest) == 3
                and rest[0] == "jobs"
                and rest[2] == "artifacts"
                and method == "GET"
            ):
                job = self._job_or_404(tenant, rest[1])
                if job is not None:
                    self._send_json(
                        {
                            "job_id": job.id,
                            "artifacts": daemon.store.list_artifacts(tenant, job.id),
                            "cas": daemon.store.manifest(tenant, job.id),
                        }
                    )
            elif (
                len(rest) >= 4
                and rest[0] == "jobs"
                and rest[2] == "artifacts"
                and method == "GET"
            ):
                self._fetch_artifact(tenant, rest[1], "/".join(rest[3:]))
            elif (
                len(rest) == 4
                and rest[0] == "jobs"
                and rest[2] == "cas"
                and method == "GET"
            ):
                self._fetch_cas(tenant, rest[1], rest[3])
            elif (
                len(rest) == 4
                and rest[0] == "jobs"
                and rest[2] == "live"
                and method == "GET"
            ):
                self._live(tenant, rest[1], rest[3], parsed.query)
            else:
                self._error(404, "unknown route")

        # -- handlers --------------------------------------------------
        def _submit(self, tenant: str) -> None:
            body = self._read_body()
            if body is None:
                return
            try:
                job = daemon.submit(body, tenant)
            except SpecError as exc:
                self._error(400, "invalid campaign spec", errors=exc.errors)
                return
            self._send_json(daemon.job_view(job), status=201)

        def _list_jobs(self, tenant: str, query: dict) -> None:
            state = query.get("state", [None])[0]
            try:
                limit = int(query.get("limit", [200])[0])
            except ValueError:
                limit = 200
            jobs = daemon.queue.list_jobs(tenant=tenant, state=state, limit=limit)
            self._send_json({"jobs": [daemon.job_view(job) for job in jobs]})

        def _fetch_artifact(self, tenant: str, job_id: str, name: str) -> None:
            if self._job_or_404(tenant, job_id) is None:
                return
            blob = daemon.store.read_artifact(tenant, job_id, name)
            if blob is None:
                self._error(404, f"no artifact {name!r} for job {job_id!r}")
                return
            content_type = (
                "application/json"
                if name.endswith(".json")
                else "application/x-ndjson"
                if name.endswith(".jsonl")
                else "application/octet-stream"
            )
            self._send_bytes(blob, content_type)

        def _fetch_cas(self, tenant: str, job_id: str, digest: str) -> None:
            if self._job_or_404(tenant, job_id) is None:
                return
            blob = daemon.store.read_cas_payload(tenant, job_id, digest)
            if blob is None:
                if digest in set(daemon.store.manifest(tenant, job_id).values()):
                    self._error(
                        410, f"CAS entry {digest} was evicted by the size cap"
                    )
                else:
                    self._error(404, f"job {job_id!r} references no CAS entry {digest}")
                return
            self._send_bytes(blob, "application/octet-stream")

        def _live(self, tenant: str, job_id: str, endpoint: str, query: str) -> None:
            if endpoint not in LIVE_ENDPOINTS:
                self._error(404, "live endpoints: metrics, progress, events")
                return
            job = self._job_or_404(tenant, job_id)
            if job is None:
                return
            plane = daemon.live_plane(job.id)
            if plane is None:
                self._error(
                    409,
                    f"job {job_id!r} is {job.state} without a live plane "
                    "(only a job running on one of the daemon's own workers "
                    "has one; artifacts remain available either way)",
                )
                return
            respond(plane, self, endpoint, query)

    return _Handler
