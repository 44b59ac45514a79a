"""Live campaign observability: an in-parent HTTP plane over a run.

MetaVRadar (PAPERS.md) watches live flows continuously rather than
post-hoc; this module gives campaigns the same property.  While a
campaign runs, a :class:`LiveObsServer` thread in the parent process
serves:

* ``GET /metrics``   — Prometheus text exposition of the cross-worker
  aggregated registry (folded by :mod:`repro.obs.fleet`), plus
  ``repro_campaign_*`` progress gauges;
* ``GET /progress``  — JSON: tasks done/running/failed, cache hits,
  retries, elapsed and ETA seconds, and the campaign summary once the
  run finishes;
* ``GET /events``    — Server-Sent-Events tail of runner telemetry
  (``?limit=N`` closes the stream after N events — handy for curl);
* ``GET /healthz``   — liveness probe.

Workers stream end-of-task metric deltas and progress markers over a
multiprocessing queue (inherited via fork; see
:func:`repro.runner.executor.set_live_queue`); the parent additionally
folds dumps at result-collection time, deduplicated per task, so the
plane works even where fork is unavailable.  The whole plane is
**read-only**: an observed-and-served campaign produces byte-identical
results to an unobserved one (asserted by ``tests/test_live_obs.py``).
"""

from __future__ import annotations

import collections
import contextlib
import json
import threading
import time
import typing
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from . import context
from .context import active_live_server  # noqa: F401  (re-exported)
from .export import to_prometheus
from .fleet import FleetAggregator

#: Telemetry events that mark a task as no longer running.
_TERMINAL_TASK_EVENTS = ("task_end", "task_fail", "task_retry")

#: How often ``serve_forever`` checks for a shutdown request.  With the
#: stdlib default (0.5 s) every ``close()`` could wait that long, and a
#: serve worker closes a live plane inside each job.
SERVE_POLL_S = 0.02


class LivePortBusyError(OSError):
    """The requested live-observability port could not be bound.

    Raised *before* any campaign work starts, so a mistyped or already
    occupied ``--live-port`` fails fast with an actionable message
    instead of surfacing as an opaque ``OSError`` mid-run.
    """


@contextlib.contextmanager
def live_server(port: int = 0, host: str = "127.0.0.1"):
    """Run a :class:`LiveObsServer` for the duration of the block.

    Any :func:`repro.runner.run_campaign` executed inside the block
    (including nested ones, e.g. the shard campaign under ``scale``)
    feeds it automatically.
    """
    server = LiveObsServer(port=port, host=host)
    previous = context._ACTIVE_LIVE_SERVER
    context._ACTIVE_LIVE_SERVER = server
    try:
        yield server
    finally:
        context._ACTIVE_LIVE_SERVER = previous
        server.close()


class LiveObsServer:
    """Aggregates a running campaign and serves it over HTTP."""

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        max_buffered_events: int = 4096,
    ) -> None:
        self.aggregator = FleetAggregator()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._events: typing.Deque[typing.Tuple[int, dict]] = collections.deque(
            maxlen=max_buffered_events
        )
        self._next_event_id = 0
        self._merged_tasks: typing.Set[str] = set()
        self._running: typing.Set[str] = set()
        self._progress: typing.Dict[str, typing.Any] = {
            "campaign_id": None,
            "n_tasks": 0,
            "done": 0,
            "failed": 0,
            "cache_hits": 0,
            "retries": 0,
            "finished": False,
            "summary": None,
        }
        self._started_monotonic = time.monotonic()
        self._closed = False
        self._queue = None
        self._drain_thread: typing.Optional[threading.Thread] = None

        handler = _make_handler(self)
        try:
            self._httpd = ThreadingHTTPServer((host, port), handler)
        except OSError as exc:
            raise LivePortBusyError(
                f"cannot serve live observability on {host}:{port} "
                f"({exc.strerror or exc}); pick a different port, or use "
                f"port 0 to let the OS choose a free one"
            ) from exc
        self._httpd.daemon_threads = True
        self.host = host
        self.port = self._httpd.server_address[1]
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": SERVE_POLL_S},
            name="repro-live-http",
            daemon=True,
        )
        self._serve_thread.start()

    # ------------------------------------------------------------------
    # Feeding (called by the runner / telemetry / queue drain)
    # ------------------------------------------------------------------
    def on_telemetry(self, record: dict) -> None:
        """TelemetryWriter listener: track progress, buffer for SSE."""
        event = record.get("event")
        with self._cond:
            if "campaign_id" in record:
                self._progress["campaign_id"] = record["campaign_id"]
            if event == "campaign_start":
                self._progress["n_tasks"] += record.get("n_tasks", 0)
                self._progress["finished"] = False
            elif event == "task_start":
                self._running.add(record.get("task", "?"))
            elif event == "cache_hit":
                self._progress["cache_hits"] += 1
            elif event == "task_end":
                self._progress["done"] += 1
            elif event == "task_fail":
                self._progress["failed"] += 1
            elif event == "task_retry":
                self._progress["retries"] += 1
            elif event == "campaign_end":
                self._progress["finished"] = True
                self._progress["summary"] = {
                    key: value
                    for key, value in record.items()
                    if key not in ("ts", "event")
                }
            if event in _TERMINAL_TASK_EVENTS:
                self._running.discard(record.get("task", "?"))
            self._append_event(dict(record))

    def note_task_metrics(self, task_id: str, registry_dump: typing.Optional[dict]) -> None:
        """Fold one task's mergeable registry dump (once per task)."""
        if not registry_dump:
            return
        with self._cond:
            if task_id in self._merged_tasks:
                return
            self._merged_tasks.add(task_id)
            self.aggregator.add_dump(registry_dump)

    def attach_queue(self, queue) -> None:
        """Drain a worker stream (progress + metric deltas) in a thread."""
        self._queue = queue
        self._drain_thread = threading.Thread(
            target=self._drain, name="repro-live-drain", daemon=True
        )
        self._drain_thread.start()

    def _drain(self) -> None:
        import queue as queue_module

        while True:
            try:
                item = self._queue.get(timeout=0.25)
            except queue_module.Empty:
                if self._closed:
                    return
                continue
            except (EOFError, OSError):  # queue torn down under us
                return
            if item is None:
                return
            kind = item.get("kind")
            if kind == "task_metrics":
                self.note_task_metrics(item.get("task", "?"), item.get("registry"))
            with self._cond:
                self._append_event(
                    {
                        "event": kind,
                        "task": item.get("task"),
                        "pid": item.get("pid"),
                        "wall_time_s": item.get("wall_time_s"),
                    }
                )

    def _append_event(self, record: dict) -> None:
        """Buffer one SSE event; caller holds the lock."""
        record.pop("registry", None)  # never stream dump payloads
        self._events.append((self._next_event_id, record))
        self._next_event_id += 1
        self._cond.notify_all()

    # ------------------------------------------------------------------
    # Serving (called by the HTTP handler threads)
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def render_metrics(self) -> str:
        with self._lock:
            registry = self.aggregator.merged_registry()
            progress = dict(self._progress)
            running = len(self._running)
        text = to_prometheus(registry)
        meta = [
            "# TYPE repro_campaign_tasks gauge",
            f"repro_campaign_tasks {progress['n_tasks']}",
            "# TYPE repro_campaign_tasks_done gauge",
            f"repro_campaign_tasks_done {progress['done']}",
            "# TYPE repro_campaign_tasks_failed gauge",
            f"repro_campaign_tasks_failed {progress['failed']}",
            "# TYPE repro_campaign_tasks_running gauge",
            f"repro_campaign_tasks_running {running}",
            "# TYPE repro_campaign_cache_hits gauge",
            f"repro_campaign_cache_hits {progress['cache_hits']}",
            "# TYPE repro_campaign_retries gauge",
            f"repro_campaign_retries {progress['retries']}",
        ]
        return text + "\n".join(meta) + "\n"

    def progress_snapshot(self) -> dict:
        with self._lock:
            progress = dict(self._progress)
            progress["running"] = sorted(self._running)
        elapsed = time.monotonic() - self._started_monotonic
        progress["elapsed_s"] = round(elapsed, 3)
        completed = (
            progress["done"] + progress["failed"] + progress["cache_hits"]
        )
        remaining = max(0, progress["n_tasks"] - completed)
        if progress["finished"] or remaining == 0:
            progress["eta_s"] = 0.0
        elif completed > 0:
            progress["eta_s"] = round(elapsed / completed * remaining, 3)
        else:
            progress["eta_s"] = None
        return progress

    def events_since(
        self, last_id: int
    ) -> typing.Tuple[typing.List[typing.Tuple[int, dict]], int]:
        """Buffered events with id > ``last_id`` plus the newest id."""
        with self._lock:
            fresh = [(i, dict(r)) for i, r in self._events if i > last_id]
            return fresh, self._next_event_id - 1

    def wait_for_events(self, last_id: int, timeout: float = 1.0) -> bool:
        """Block until an event newer than ``last_id`` exists (or close)."""
        with self._cond:
            if self._next_event_id - 1 > last_id:
                return True
            if self._closed:
                return False
            self._cond.wait(timeout=timeout)
            return self._next_event_id - 1 > last_id

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._queue is not None:
            try:
                self._queue.put(None)
            except Exception:  # noqa: BLE001 - queue may already be gone
                pass
        if self._drain_thread is not None:
            self._drain_thread.join(timeout=2.0)
        with self._cond:
            self._cond.notify_all()
        self._httpd.shutdown()
        self._httpd.server_close()

    def __enter__(self) -> "LiveObsServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _make_handler(server: LiveObsServer):
    class _Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Headers and body go out in separate writes; without
        # TCP_NODELAY, Nagle holds the body until the client's delayed
        # ACK, stalling every keep-alive request by ~40 ms.
        disable_nagle_algorithm = True

        def log_message(self, *args) -> None:  # pragma: no cover - quiet
            pass

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            parsed = urlparse(self.path)
            route = parsed.path.rstrip("/") or "/"
            try:
                if route == "/metrics":
                    self._send_text(server.render_metrics(), "text/plain; version=0.0.4")
                elif route == "/progress":
                    body = json.dumps(server.progress_snapshot(), sort_keys=True)
                    self._send_text(body + "\n", "application/json")
                elif route in ("/", "/healthz"):
                    self._send_text("ok\n", "text/plain")
                elif route == "/events":
                    self._stream_events(parse_qs(parsed.query))
                else:
                    self.send_error(404, "unknown route")
            except (BrokenPipeError, ConnectionResetError):  # client left
                pass

        def _send_text(self, body: str, content_type: str) -> None:
            payload = body.encode()
            self.send_response(200)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def _stream_events(self, query: dict) -> None:
            try:
                limit = int(query.get("limit", [0])[0])
                last_id = int(query.get("since", [-1])[0])
            except ValueError:
                self.send_error(400, "limit and since must be integers")
                return
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Connection", "close")
            self.end_headers()
            sent = 0
            while True:
                fresh, newest = server.events_since(last_id)
                for event_id, record in fresh:
                    frame = (
                        f"id: {event_id}\n"
                        f"data: {json.dumps(record, sort_keys=True)}\n\n"
                    )
                    self.wfile.write(frame.encode())
                    last_id = event_id
                    sent += 1
                    if limit and sent >= limit:
                        self.wfile.flush()
                        return
                self.wfile.flush()
                if not server.wait_for_events(last_id, timeout=0.5):
                    if server.closed:
                        return

    return _Handler
