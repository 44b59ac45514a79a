"""Stdlib HTTP client for the serve control plane.

Thin, dependency-free wrapper used by the ``python -m repro
submit/status/artifacts`` subcommands, the examples, and the tests —
anything that would otherwise hand-roll ``urllib`` calls against
:mod:`repro.serve.api`.  Errors surface as :class:`ServeApiError`
carrying the HTTP status and the API's JSON error body; a control
plane that never answers raises it too, with no status.
"""

from __future__ import annotations

import json
import time
import typing
import urllib.error
import urllib.parse
import urllib.request


class ServeApiError(RuntimeError):
    """An API call failed; ``status`` and ``body`` carry the details.

    ``status`` is None when the control plane never answered."""

    def __init__(self, status: typing.Optional[int], body: typing.Any) -> None:
        message = body.get("error") if isinstance(body, dict) else str(body)
        super().__init__(message if status is None else f"HTTP {status}: {message}")
        self.status = status
        self.body = body


class ServeClient:
    """One control-plane endpoint plus (optionally) a tenant token."""

    def __init__(
        self,
        base_url: str,
        token: typing.Optional[str] = None,
        timeout_s: float = 30.0,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.token = token
        self.timeout_s = timeout_s

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _request(
        self,
        path: str,
        method: str = "GET",
        payload: typing.Optional[dict] = None,
    ) -> typing.Tuple[int, bytes, str]:
        request = urllib.request.Request(
            self.base_url + path, method=method
        )
        if self.token:
            request.add_header("X-Repro-Token", self.token)
        data = None
        if payload is not None:
            data = json.dumps(payload).encode()
            request.add_header("Content-Type", "application/json")
        try:
            with urllib.request.urlopen(
                request, data=data, timeout=self.timeout_s
            ) as response:
                return (
                    response.status,
                    response.read(),
                    response.headers.get("Content-Type", ""),
                )
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                body = json.loads(raw.decode())
            except (ValueError, UnicodeDecodeError):
                body = raw.decode(errors="replace")
            raise ServeApiError(exc.code, body) from None
        except OSError as exc:
            # No HTTP answer at all: refused, unresolvable, timed out.
            reason = getattr(exc, "reason", exc)
            raise ServeApiError(
                None, f"cannot reach {self.base_url}: {reason}"
            ) from None

    def _json(self, path: str, method: str = "GET",
              payload: typing.Optional[dict] = None) -> dict:
        _, body, _ = self._request(path, method=method, payload=payload)
        return json.loads(body.decode())

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._json("/healthz")

    def metrics(self) -> str:
        """The daemon's cross-job Prometheus rollup (text exposition)."""
        _, body, _ = self._request("/metrics")
        return body.decode()

    def experiments(self) -> typing.List[dict]:
        return self._json("/v1/experiments")["experiments"]

    def submit(self, spec: typing.Mapping) -> dict:
        """Submit a campaign spec; returns the created job view."""
        return self._json("/v1/jobs", method="POST", payload=dict(spec))

    def jobs(self, state: typing.Optional[str] = None) -> typing.List[dict]:
        path = "/v1/jobs" + (f"?state={state}" if state else "")
        return self._json(path)["jobs"]

    def job(self, job_id: str) -> dict:
        return self._json(f"/v1/jobs/{job_id}")

    def cancel(self, job_id: str) -> dict:
        return self._json(f"/v1/jobs/{job_id}/cancel", method="POST")

    def artifacts(self, job_id: str) -> dict:
        """``{"artifacts": [names], "cas": {task_id: digest}}``."""
        return self._json(f"/v1/jobs/{job_id}/artifacts")

    def fetch_artifact(self, job_id: str, name: str) -> bytes:
        # Artifact names can carry URL-significant characters (per-task
        # metrics dumps embed '#'); encode each path segment.
        quoted = "/".join(
            urllib.parse.quote(part, safe="") for part in name.split("/")
        )
        _, body, _ = self._request(f"/v1/jobs/{job_id}/artifacts/{quoted}")
        return body

    def fetch_cas(self, job_id: str, digest: str) -> bytes:
        _, body, _ = self._request(f"/v1/jobs/{job_id}/cas/{digest}")
        return body

    def live(self, job_id: str, endpoint: str, query: str = "") -> bytes:
        """Raw bytes from one of the running job's live plane endpoints."""
        path = f"/v1/jobs/{job_id}/live/{endpoint}"
        if query:
            path += f"?{query}"
        _, body, _ = self._request(path)
        return body

    def wait(
        self,
        job_id: str,
        timeout_s: float = 600.0,
        poll_s: float = 0.25,
        on_poll: typing.Optional[typing.Callable[[dict], None]] = None,
    ) -> dict:
        """Poll until the job reaches a terminal state.

        The first pause is 20 ms and each one doubles, up to ``poll_s``,
        so a job that takes tens of milliseconds (a resubmit that is all
        cache hits) is seen within tens of milliseconds.
        """
        deadline = time.monotonic() + timeout_s
        pause = 0.02
        while True:
            job = self.job(job_id)
            if on_poll is not None:
                on_poll(job)
            if job.get("terminal"):
                return job
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {job.get('state')!r} "
                    f"after {timeout_s:.0f}s"
                )
            time.sleep(min(pause, poll_s))
            pause *= 2
