"""The per-endpoint remote client: one shard server over a socket.

:class:`RemoteShardClient` talks to *one* shard server over one
:class:`~repro.service.transport.mux.MuxConnection`: every caller's
requests share that connection concurrently, with request-id
correlation, out-of-order completion and per-request deadlines.  A
connection that went stale between calls (the server restarted, a
middlebox dropped it) is re-dialled and the request retried once.

:class:`~repro.service.cluster.client.ClusterClient` composes one such
client per replica endpoint behind the ``ExEAClient`` call surface; with
the codec's exact round-trips its results are bit-identical to the
in-process sharded service at the same shard count.

Failure surface: service errors (backpressure, deadline, closed) arrive
as their own exception types; anything wrong with the *transport* —
refused connections, a server dying mid-request, protocol violations —
raises :class:`~repro.service.errors.RemoteTransportError` instead of
hanging (every request runs under a deadline).
"""

from __future__ import annotations

import socket
import threading

from ..errors import RemoteTransportError
from ..observability.spans import Span, span_from_wire
from ..stats import WireCounters
from .facade import DEFAULT_TIMEOUT, is_stale_symptom
from .framing import DEFAULT_MAX_FRAME_BYTES, ProtocolError
from .mux import MuxConnection
from .protocol import OP_MUTATE, OP_PING, OP_TRACE, decode_error
from .server import parse_listen_address


class RemoteShardClient:
    """Request/response client to one shard server (one mux connection)."""

    def __init__(
        self,
        endpoint: str,
        timeout: float = DEFAULT_TIMEOUT,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.endpoint = endpoint
        self.timeout = timeout
        self.max_frame_bytes = max_frame_bytes
        self.wire_counters = WireCounters()
        self._family, self._address = parse_listen_address(endpoint)
        self._lock = threading.Lock()
        self._closed = False
        self._blob_cache: dict = {}
        self._mux_conn: MuxConnection | None = None

    # ------------------------------------------------------------------
    # Connection
    # ------------------------------------------------------------------
    def _dial(self) -> socket.socket:
        """Open a fresh connection to the shard server."""
        conn = socket.socket(self._family, socket.SOCK_STREAM)
        try:
            conn.settimeout(self.timeout)
            conn.connect(self._address)
            if self._family == socket.AF_INET:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return conn
        except OSError as error:
            conn.close()
            raise RemoteTransportError(
                f"cannot connect to shard server at {self.endpoint}: {error}"
            ) from error

    def close(self) -> None:
        """Close the connection and refuse further calls."""
        with self._lock:
            self._closed = True
            mux_conn, self._mux_conn = self._mux_conn, None
        if mux_conn is not None:
            mux_conn.close()

    def _mux_connection(self) -> tuple[MuxConnection, bool]:
        """The live mux connection, dialling one when needed."""
        with self._lock:
            if self._closed:
                raise RemoteTransportError(f"client for {self.endpoint} is closed")
            conn = self._mux_conn
            if conn is not None and not conn.dead:
                return conn, False
        sock = self._dial()
        fresh = MuxConnection(
            sock,
            max_frame_bytes=self.max_frame_bytes,
            counters=self.wire_counters,
            blob_cache=self._blob_cache,
        )
        with self._lock:
            if self._closed:
                fresh.close()
                raise RemoteTransportError(f"client for {self.endpoint} is closed")
            current = self._mux_conn
            if current is not None and not current.dead:
                # Another caller reconnected first; theirs wins.
                fresh.close()
                return current, False
            self._mux_conn = fresh
        return fresh, True

    def _drop_mux(self, conn: MuxConnection) -> None:
        with self._lock:
            if self._mux_conn is conn:
                self._mux_conn = None
        conn.close()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _exchange(self, payload: dict, timeout: float | None) -> dict:
        """One exchange over the mux connection, with one stale retry.

        A connection that existed before this call may have gone stale
        between requests; its death is retried once on a fresh connection
        (every operation is idempotent).  A connection dialled *for* this
        call failing is a real transport error, and request-shaped
        failures and deadlines never retry (:func:`is_stale_symptom`).
        """
        timeout_value = self.timeout if timeout is None else timeout
        conn, created = self._mux_connection()
        try:
            return conn.request(payload, timeout_value)
        except (ProtocolError, OSError) as error:
            if conn.dead:
                self._drop_mux(conn)
            if created or not is_stale_symptom(error):
                raise
            conn, _ = self._mux_connection()
            try:
                return conn.request(payload, timeout_value)
            except (ProtocolError, OSError):
                if conn.dead:
                    self._drop_mux(conn)
                raise

    def call(self, payload: dict, timeout: float | None = None):
        """Send one request; return the decoded ``ok`` payload.

        Wire-level error responses re-raise as their mapped exception
        types.  A :class:`~repro.service.observability.context.TraceContext`
        under ``payload["trace"]`` rides the codec's native trace tag.
        """
        response = self._exchange(payload, timeout)
        if "error" in response:
            raise decode_error(response["error"])
        return response.get("ok", response)

    def ping(self) -> dict:
        """Topology/identity of the server (shard id, shard count, token)."""
        return self.call({"op": OP_PING})

    def mutate(self, specs, seq: int | None = None, timeout: float | None = None) -> dict:
        """Apply one ordered mutation batch on this shard server.

        :class:`MutationSpec` objects ride the codec natively (TLV tag
        ``0x0E``).
        """
        payload: dict = {"op": OP_MUTATE, "mutations": list(specs)}
        if seq is not None:
            payload["seq"] = seq
        return self.call(payload, timeout=timeout)

    def trace_spans(self, trace_id: str | None = None) -> list[Span]:
        """Pull the server's span ring (optionally one trace's spans)."""
        payload: dict = {"op": OP_TRACE}
        if trace_id is not None:
            payload["trace_id"] = trace_id
        spans = []
        for item in self.call(payload)["spans"]:
            span = span_from_wire(item)
            if span is not None:
                spans.append(span)
        return spans

    def pin_trace(self, trace_id: str) -> int:
        """Pin one trace's spans in the server's ring (tail-sampling keep).

        Rides the ``trace`` op with ``pin: true``: the server moves the
        spans out of eviction reach and reports how many it holds.
        """
        return self.call({"op": OP_TRACE, "trace_id": trace_id, "pin": True})["pinned"]


__all__ = [
    "DEFAULT_TIMEOUT",
    "RemoteShardClient",
]
