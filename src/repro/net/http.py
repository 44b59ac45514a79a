"""HTTPS request/response and server-push channels over TLS.

Platform control channels (menu operations, periodic client reports,
clock sync) are HTTPS request/response exchanges. Hubs additionally
pushes avatar state to clients over its long-lived HTTPS channel; the
:meth:`HttpsConnection.push` primitive models that WebSocket-style
server-initiated flow.
"""

from __future__ import annotations

import itertools
import typing

from .address import Endpoint
from .node import Host
from .tcp import TcpConnection, TcpListener
from .tls import TlsSession

_request_ids = itertools.count(1)

HTTP_REQUEST_HEADER_BYTES = 420
HTTP_RESPONSE_HEADER_BYTES = 280


class HttpsConnection:
    """One end of an HTTPS channel (used by both client and server)."""

    def __init__(self, tls: TlsSession, owner) -> None:
        self.tls = tls
        self.owner = owner
        self.peer: typing.Optional[Endpoint] = None
        self._pending: dict[int, typing.Callable] = {}
        tls.on_message = self._on_app_message

    @property
    def ready(self) -> bool:
        return self.tls.secure

    # ------------------------------------------------------------------
    # Client-originated exchange
    # ------------------------------------------------------------------
    def request(
        self,
        name: str,
        request_bytes: int,
        response_hint: int = 0,
        on_response: typing.Optional[typing.Callable] = None,
    ) -> int:
        """Send a request; the responder decides the response size.

        ``response_hint`` is used when the server has no explicit
        responder for ``name``.
        """
        request_id = next(_request_ids)
        if on_response is not None:
            self._pending[request_id] = on_response
        self.tls.send_application(
            request_bytes + HTTP_REQUEST_HEADER_BYTES,
            ("http-req", request_id, name, response_hint),
        )
        return request_id

    def respond(self, request_id: int, name: str, response_bytes: int) -> None:
        self.tls.send_application(
            response_bytes + HTTP_RESPONSE_HEADER_BYTES,
            ("http-resp", request_id, name),
        )

    def push(self, name: str, push_bytes: int, meta=None) -> None:
        """Server-initiated message (WebSocket-over-TLS style)."""
        self.tls.send_application(push_bytes, ("http-push", name, meta))

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _on_app_message(self, _tls, meta, size: int, enqueued_at: float) -> None:
        if not (isinstance(meta, tuple) and meta):
            return
        kind = meta[0]
        if kind == "http-req":
            _, request_id, name, response_hint = meta
            self.owner.handle_request(self, request_id, name, size, response_hint)
        elif kind == "http-resp":
            _, request_id, name = meta
            callback = self._pending.pop(request_id, None)
            if callback is not None:
                callback(name, size)
            self.owner.handle_response(self, request_id, name, size)
        elif kind == "http-push":
            _, name, push_meta = meta
            self.owner.handle_push(self, name, size, push_meta, enqueued_at)


class HttpsClient:
    """An HTTPS client endpoint bound to one server."""

    def __init__(
        self,
        host: Host,
        local_port: int,
        server: Endpoint,
        on_push: typing.Optional[typing.Callable] = None,
        on_ready: typing.Optional[typing.Callable] = None,
    ) -> None:
        self.host = host
        self.server = server
        self.on_push = on_push
        self.on_ready = on_ready
        connection = TcpConnection(host, local_port, server, name=f"https:{host.name}")
        tls = TlsSession(connection, is_client=True, on_secure=self._on_secure)
        self.channel = HttpsConnection(tls, owner=self)
        self.tcp = connection

    def open(self) -> None:
        self.tcp.connect()

    def close(self) -> None:
        self.tcp.close()

    @property
    def ready(self) -> bool:
        return self.channel.ready

    def request(self, name, request_bytes, response_hint=0, on_response=None) -> int:
        return self.channel.request(name, request_bytes, response_hint, on_response)

    def _on_secure(self, _tls) -> None:
        if self.on_ready is not None:
            self.on_ready(self)

    # HttpsConnection owner protocol -----------------------------------
    def handle_request(self, channel, request_id, name, size, response_hint) -> None:
        # Clients do not serve requests; ignore.
        pass

    def handle_response(self, channel, request_id, name, size) -> None:
        pass

    def handle_push(self, channel, name, size, meta, enqueued_at) -> None:
        if self.on_push is not None:
            self.on_push(name, size, meta, enqueued_at)


class HttpsServer:
    """An HTTPS server accepting many client channels on one port.

    ``responder(name, request_bytes, response_hint) -> response_bytes``
    sets response sizes; ``processing_delay()`` lets a platform model add
    server-side compute time before the response leaves (Sec. 7 measures
    exactly this component).
    """

    def __init__(
        self,
        host: Host,
        port: int,
        responder: typing.Optional[typing.Callable] = None,
        processing_delay: typing.Optional[typing.Callable[[], float]] = None,
        on_request: typing.Optional[typing.Callable] = None,
        on_push: typing.Optional[typing.Callable] = None,
    ) -> None:
        self.host = host
        self.sim = host.sim
        self.port = port
        self.responder = responder
        self.processing_delay = processing_delay
        self.on_request = on_request
        self.on_push = on_push
        self.channels: dict[Endpoint, HttpsConnection] = {}
        self.listener = TcpListener(host, port, self._on_connection)

    def close(self) -> None:
        self.listener.close()

    def _on_connection(self, connection: TcpConnection) -> None:
        tls = TlsSession(connection, is_client=False)
        channel = HttpsConnection(tls, owner=self)
        channel.peer = connection.remote
        self.channels[connection.remote] = channel

    def push(self, peer: Endpoint, name: str, push_bytes: int, meta=None) -> bool:
        channel = self.channels.get(peer)
        if channel is None or not channel.ready:
            return False
        channel.push(name, push_bytes, meta)
        return True

    # HttpsConnection owner protocol -----------------------------------
    def handle_request(self, channel, request_id, name, size, response_hint) -> None:
        if self.on_request is not None:
            self.on_request(channel, name, size)
        if self.responder is not None:
            response_bytes = self.responder(name, size, response_hint)
        else:
            response_bytes = response_hint
        if response_bytes <= 0:
            response_bytes = 48  # bare 204-style acknowledgement
        delay = self.processing_delay() if self.processing_delay else 0.0
        self.sim.schedule(delay, channel.respond, request_id, name, response_bytes)

    def handle_response(self, channel, request_id, name, size) -> None:
        pass

    def handle_push(self, channel, name, size, meta, enqueued_at) -> None:
        # Client-to-server push (e.g. Hubs avatar updates over HTTPS).
        if self.on_push is not None:
            self.on_push(channel, name, size, meta, enqueued_at)
