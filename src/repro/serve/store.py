"""Artifact store: tenant-namespaced job artifacts over a shared CAS.

Layout under the spool directory::

    spool/
      queue.sqlite3                  (the job queue — not the store's)
      cas/                           shared content-addressed result
                                     cache (repro.runner.cache), keyed
                                     by task identity — THE dedupe
                                     layer: identical sub-campaigns
                                     from any tenant resolve to the
                                     same entries
      tenants/<tenant>/jobs/<job>/
        spec.json                    normalized spec as submitted
        results.json                 deterministic per-task results
        manifest.json                task -> CAS digest map
        summary.json                 runner accounting (cache_hits, …)
        telemetry.jsonl              runner telemetry (timestamped)
        metrics/                     per-task obs dumps (collect_obs)

``results.json`` and ``manifest.json`` are derived purely from the
plan content and the (deterministic) task values, so resubmitting an
identical spec — even after a worker crash mid-job — reproduces them
byte-for-byte; that is the guarantee the dedupe acceptance test pins.
``summary.json`` and ``telemetry.jsonl`` carry wall-clock accounting
and are explicitly outside the byte-identity contract.

Tenant isolation is structural: every lookup takes the tenant and
resolves inside ``tenants/<tenant>/`` only, and CAS payload fetches
are validated against the job's manifest — a tenant can only read CAS
entries its own jobs reference (even though storage is shared).
"""

from __future__ import annotations

import dataclasses
import json
import os
import typing

from ..runner import CampaignResult, ResultCache, TaskSpec
from ..runner.plan import CampaignPlan

CAS_DIRNAME = "cas"

#: Artifacts inside the byte-identity contract (content-derived only).
DETERMINISTIC_ARTIFACTS = ("results.json", "manifest.json")


def _jsonable(value: typing.Any) -> typing.Any:
    """A canonical JSON view of an arbitrary task result.

    Dataclasses become objects, mappings/sequences recurse, and
    anything else falls back to ``repr`` — stable for the value types
    experiments return, which is all byte-identity needs.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _write_canonical_json(path: str, payload: dict) -> None:
    """Atomic, canonical JSON write (sorted keys, fixed separators)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    tmp = path + f".tmp.{os.getpid()}"
    with open(tmp, "w") as handle:
        handle.write(blob + "\n")
    os.replace(tmp, path)


class ArtifactStore:
    """Per-job artifact directories over one shared result CAS."""

    def __init__(
        self,
        root: typing.Union[str, os.PathLike],
        max_cache_bytes: typing.Optional[int] = None,
    ) -> None:
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.cache = ResultCache(
            os.path.join(self.root, CAS_DIRNAME), max_bytes=max_cache_bytes
        )

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def cas_dir(self) -> str:
        return self.cache.root

    def job_dir(self, tenant: str, job_id: str, create: bool = False) -> str:
        for part in (tenant, job_id):
            if not part or os.sep in part or part in (".", "..") or "/" in part:
                raise ValueError(f"unsafe path component {part!r}")
        path = os.path.join(self.root, "tenants", tenant, "jobs", job_id)
        if create:
            os.makedirs(path, exist_ok=True)
        return path

    def telemetry_path(self, tenant: str, job_id: str) -> str:
        return os.path.join(self.job_dir(tenant, job_id, create=True), "telemetry.jsonl")

    def metrics_dir(self, tenant: str, job_id: str) -> str:
        return os.path.join(self.job_dir(tenant, job_id, create=True), "metrics")

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def write_spec(self, tenant: str, job_id: str, spec: typing.Mapping) -> str:
        path = os.path.join(self.job_dir(tenant, job_id, create=True), "spec.json")
        _write_canonical_json(path, dict(spec))
        return path

    def write_results(
        self,
        tenant: str,
        job_id: str,
        plan: CampaignPlan,
        campaign: CampaignResult,
    ) -> typing.List[str]:
        """Persist one finished campaign's artifacts; returns names.

        ``results.json`` and ``manifest.json`` are canonical and
        content-derived (plan order, task identity, task values);
        ``summary.json`` carries the wall-clock accounting, including
        the per-job ``cache_hits`` the API reports.
        """
        job_dir = self.job_dir(tenant, job_id, create=True)
        campaign_id = plan.campaign_id
        tasks = []
        manifest = {}
        for task_result in campaign.task_results:
            spec = task_result.spec
            digest = spec.cache_key()
            manifest[spec.task_id] = digest
            tasks.append(
                {
                    "task_id": spec.task_id,
                    "experiment": spec.experiment,
                    "seed": spec.seed,
                    "params": _jsonable(spec.kwargs_dict),
                    "cache_key": digest,
                    "status": task_result.status,
                    "value": _jsonable(task_result.value),
                    "error": task_result.error,
                }
            )
        _write_canonical_json(
            os.path.join(job_dir, "results.json"),
            {"schema": 1, "campaign_id": campaign_id, "tasks": tasks},
        )
        _write_canonical_json(
            os.path.join(job_dir, "manifest.json"),
            {"schema": 1, "campaign_id": campaign_id, "tasks": manifest},
        )
        summary = campaign.summary.as_dict()
        summary["campaign_id"] = campaign_id
        summary["job_id"] = job_id
        _write_canonical_json(os.path.join(job_dir, "summary.json"), summary)
        return self.list_artifacts(tenant, job_id)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def list_artifacts(self, tenant: str, job_id: str) -> typing.List[str]:
        """Relative artifact paths for one job (sorted, recursive)."""
        job_dir = self.job_dir(tenant, job_id)
        if not os.path.isdir(job_dir):
            return []
        names = []
        for dirpath, _, files in os.walk(job_dir):
            for name in files:
                full = os.path.join(dirpath, name)
                names.append(os.path.relpath(full, job_dir))
        return sorted(names)

    def read_artifact(self, tenant: str, job_id: str, name: str) -> typing.Optional[bytes]:
        """One artifact's bytes, or ``None``; traversal-safe."""
        job_dir = os.path.realpath(self.job_dir(tenant, job_id))
        path = os.path.realpath(os.path.join(job_dir, name))
        if not (path == job_dir or path.startswith(job_dir + os.sep)):
            return None
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except (FileNotFoundError, IsADirectoryError):
            return None

    def manifest(self, tenant: str, job_id: str) -> typing.Dict[str, str]:
        """The job's ``task_id -> CAS digest`` map (empty before run)."""
        blob = self.read_artifact(tenant, job_id, "manifest.json")
        if blob is None:
            return {}
        try:
            return dict(json.loads(blob.decode()).get("tasks", {}))
        except (ValueError, AttributeError):
            return {}

    def read_cas_payload(
        self, tenant: str, job_id: str, digest: str
    ) -> typing.Optional[bytes]:
        """Raw CAS pickle bytes for a digest *this job references*.

        Returns ``None`` for digests outside the job's manifest (the
        tenant-isolation guard) and for entries the LRU cap already
        evicted (the caller should distinguish via :meth:`manifest`).
        """
        if digest not in set(self.manifest(tenant, job_id).values()):
            return None
        path = os.path.join(self.cas_dir, digest[:2], digest + ".pkl")
        if not os.path.realpath(path).startswith(os.path.realpath(self.cas_dir)):
            return None
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None
