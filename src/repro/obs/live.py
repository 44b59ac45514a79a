"""Live campaign observability: an HTTP plane over a running campaign.

MetaVRadar (PAPERS.md) watches live flows continuously rather than
post-hoc; this module gives campaigns the same property.  A
:class:`LivePlane` holds one run's live view, which :func:`respond`
serves on three routes:

* ``GET /metrics``   — Prometheus text exposition of the campaign's
  aggregated registry (folded by :mod:`repro.obs.fleet`), plus
  ``repro_campaign_*`` progress gauges;
* ``GET /progress``  — JSON: tasks done/running/failed, cache hits,
  retries, elapsed and ETA seconds, and the campaign summary once the
  run finishes;
* ``GET /events``    — Server-Sent-Events tail of runner telemetry
  (``?limit=N`` closes the stream after N events — handy for curl).

A :class:`LiveObsServer` (``--live-port``, :func:`live_server`) serves
them on its own port, plus ``GET /healthz``; the serve daemon answers
each running job's ``/v1/jobs/<id>/live/*`` from that job's plane.

A plane has one feed: :func:`repro.runner.run_campaign` listens to its
own telemetry and folds each unit's registry as the executor returns
that unit.  Units run with no plane visible, so neither a worker nor a
campaign nested inside a unit feeds one.  The active plane is a context
variable (:func:`repro.obs.context.live_plane`), so it belongs to the
thread that opened it.  The whole plane is **read-only**: an observed
campaign produces byte-identical results and registries to an
unobserved one (asserted by ``tests/test_live_obs.py``).
"""

from __future__ import annotations

import collections
import contextlib
import json
import selectors
import socket
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

#: Telemetry events a plane keeps for ``/events``; older ones drop off.
MAX_BUFFERED_EVENTS = 4096

#: The routes :func:`respond` answers.
LIVE_ENDPOINTS = ("metrics", "progress", "events")


class HTTPServerThread(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` on its own thread that closes at once.

    The stdlib's ``serve_forever`` wakes on a fixed poll to look for a
    shutdown request, so a close can wait out one poll.  This loop
    instead selects on the listening socket plus one end of a socketpair
    that :meth:`close` writes to, the fix ``serve_forever``'s own
    comment suggests.  The serve daemon's API and every
    :class:`LiveObsServer` run on it.
    """

    daemon_threads = True

    def __init__(self, address, handler, name: str) -> None:
        super().__init__(address, handler)
        self._wake_r, self._wake_w = socket.socketpair()
        self._thread = threading.Thread(target=self._serve, name=name, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def _serve(self) -> None:
        with selectors.DefaultSelector() as selector:
            selector.register(self, selectors.EVENT_READ)
            selector.register(self._wake_r, selectors.EVENT_READ)
            while True:
                ready = [key.fileobj for key, _ in selector.select()]
                if self._wake_r in ready:
                    return
                if ready:
                    self._handle_request_noblock()

    def close(self) -> None:
        """Stop the loop, join its thread and close every socket; a
        second call does nothing."""
        if self._wake_w.fileno() == -1:
            return
        self._wake_w.send(b"\0")
        if self._thread.ident is not None:
            self._thread.join()
        self.server_close()
        self._wake_r.close()
        self._wake_w.close()


class LivePortBusyError(OSError):
    """The requested live-observability port could not be bound.

    Raised *before* any campaign work starts, so a mistyped or already
    occupied ``--live-port`` fails fast with an actionable message
    instead of surfacing as an opaque ``OSError`` mid-run.
    """


@contextlib.contextmanager
def live_server(port: int = 0, host: str = "127.0.0.1"):
    """Run a :class:`LiveObsServer` for the duration of the block.

    Every :func:`repro.runner.run_campaign` that this thread runs inside
    the block feeds it; campaigns nested inside a unit do not.
    """
    with LiveObsServer(port=port, host=host) as server, context.live_plane(server):
        yield server


class LivePlane:
    """A run's live view: progress, the folded registry and a telemetry
    tail, fed by each :func:`repro.runner.run_campaign` it is active
    for."""

    def __init__(self) -> None:
        self.aggregator = FleetAggregator()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._events: typing.Deque[typing.Tuple[int, dict]] = collections.deque(
            maxlen=MAX_BUFFERED_EVENTS
        )
        self._next_event_id = 0
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

    # ------------------------------------------------------------------
    # Feeding (called by the runner and its telemetry)
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
            self._events.append((self._next_event_id, dict(record)))
            self._next_event_id += 1
            self._cond.notify_all()

    def fold(self, registry_dump: typing.Optional[dict]) -> None:
        """Fold one unit's mergeable registry dump into ``/metrics``."""
        if registry_dump:
            with self._lock:
                self.aggregator.add_dump(registry_dump)

    # ------------------------------------------------------------------
    # Reading (called by the HTTP handler threads)
    # ------------------------------------------------------------------
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
        """End every open ``/events`` stream; idempotent."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def __enter__(self) -> "LivePlane":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class LiveObsServer(LivePlane):
    """A :class:`LivePlane` served over HTTP on its own port."""

    def __init__(self, port: int = 0, host: str = "127.0.0.1") -> None:
        super().__init__()
        try:
            self._httpd = HTTPServerThread(
                (host, port), _make_handler(self), "repro-live-http"
            )
        except OSError as exc:
            raise LivePortBusyError(
                f"cannot serve live observability on {host}:{port} "
                f"({exc.strerror or exc}); pick a different port, or use "
                f"port 0 to let the OS choose a free one"
            ) from exc
        self.host = host
        self.port = self._httpd.server_address[1]
        self._httpd.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        super().close()
        self._httpd.close()


def respond(
    plane: LivePlane, handler: BaseHTTPRequestHandler, endpoint: str, query: str
) -> None:
    """Answer ``GET /<endpoint>?<query>`` from ``plane`` on ``handler``;
    ``endpoint`` is one of :data:`LIVE_ENDPOINTS`.  Both the
    :class:`LiveObsServer` and the serve daemon answer through it."""
    if endpoint == "metrics":
        _send_text(handler, plane.render_metrics(), "text/plain; version=0.0.4")
    elif endpoint == "progress":
        body = json.dumps(plane.progress_snapshot(), sort_keys=True)
        _send_text(handler, body + "\n", "application/json")
    else:
        _stream_events(plane, handler, parse_qs(query))


def _send_text(handler: BaseHTTPRequestHandler, body: str, content_type: str) -> None:
    payload = body.encode()
    handler.send_response(200)
    handler.send_header("Content-Type", content_type)
    handler.send_header("Content-Length", str(len(payload)))
    handler.end_headers()
    handler.wfile.write(payload)


def _stream_events(
    plane: LivePlane, handler: BaseHTTPRequestHandler, query: dict
) -> None:
    try:
        limit = int(query.get("limit", [0])[0])
        last_id = int(query.get("since", [-1])[0])
    except ValueError:
        handler.send_error(400, "limit and since must be integers")
        return
    handler.send_response(200)
    handler.send_header("Content-Type", "text/event-stream")
    handler.send_header("Cache-Control", "no-cache")
    handler.send_header("Connection", "close")
    handler.end_headers()
    sent = 0
    while True:
        fresh, newest = plane.events_since(last_id)
        for event_id, record in fresh:
            frame = (
                f"id: {event_id}\n"
                f"data: {json.dumps(record, sort_keys=True)}\n\n"
            )
            handler.wfile.write(frame.encode())
            last_id = event_id
            sent += 1
            if limit and sent >= limit:
                handler.wfile.flush()
                return
        handler.wfile.flush()
        if not plane.wait_for_events(last_id, timeout=0.5):
            if plane.closed:
                return


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
            endpoint = parsed.path.rstrip("/")[1:]
            try:
                if endpoint in LIVE_ENDPOINTS:
                    respond(server, self, endpoint, parsed.query)
                elif endpoint in ("", "healthz"):
                    _send_text(self, "ok\n", "text/plain")
                else:
                    self.send_error(404, "unknown route")
            except (BrokenPipeError, ConnectionResetError):  # client left
                pass

    return _Handler
